package main

import (
	"sort"
	"strings"
	"time"

	"ferrum/internal/obs"
)

// The traced breakdown reads only what the program already emits through
// obs: its build/golden/checkpoint.record/inject/cell/profile.run/
// transform.reps spans and its counters and histograms, plus the spans
// this benchmark opens on the main lane around each public call it makes.
//
// Self time is charged so that the layers add up to the wall-clock: at
// every instant the elapsed time is split evenly among the innermost open
// spans (one per busy lane), and a span is innermost while none of its
// children is open. Time that no span covers is unattributed_s.

// timeLayers lists every layer a span's self time can be charged to, so
// each one is reported even when a workload never enters it.
var timeLayers = []string{
	"harness.sched_s", "harness.build_s", "harness.render_s",
	"machine.golden_s", "machine.profile_s", "ferrumpass.transform_s",
	"fi.record_s", "compose.record_s", "fi.inject_s", "ir.inject_s",
	"fi.campaign_s", "fi.journal_s", "bench.check_s",
}

// layerOf names the layer a span's self time is charged to; "" leaves it
// unattributed.
func layerOf(sp obs.Span, composed bool) string {
	switch sp.Name {
	case "build":
		return "harness.build_s"
	case "golden", "golden.cached":
		return "machine.golden_s"
	case "checkpoint.record":
		if composed {
			return "compose.record_s"
		}
		return "fi.record_s"
	case "inject":
		if isIRCell(sp.Cell) {
			return "ir.inject_s"
		}
		return "fi.inject_s"
	case "transform.reps":
		return "ferrumpass.transform_s"
	case "profile.run":
		return "machine.profile_s"
	case "cell", "fi.RunAsmCampaign":
		// Campaign work outside the named phases: machine set-up, plan
		// sampling, section fingerprints and cache lookups, result assembly.
		return "fi.campaign_s"
	case "harness.Render":
		return "harness.render_s"
	case "fi.journal":
		return "fi.journal_s"
	case "bench.check":
		return "bench.check_s"
	}
	if strings.HasPrefix(sp.Name, "harness.") {
		// An experiment call's own time: instantiation, cell set-up and the
		// gaps in which no cell runs.
		return "harness.sched_s"
	}
	return ""
}

// isIRCell reports whether a scheduler cell runs an IR-level campaign (the
// gap experiment's ir-raw and ir-prot cells).
func isIRCell(cell string) bool {
	return strings.HasSuffix(cell, "/ir-raw") || strings.HasSuffix(cell, "/ir-prot")
}

func spanEnd(sp obs.Span) time.Time { return sp.Start.Add(sp.Dur) }

// spanOrder sorts span indices by start, enclosing spans first.
func spanOrder(spans []obs.Span) []int {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if !x.Start.Equal(y.Start) {
			return x.Start.Before(y.Start)
		}
		return x.Dur > y.Dur
	})
	return order
}

// spanTree returns each span's parent index (-1 for roots): the innermost
// span on the same lane that encloses it, or, for a cell-worker lane span
// with none, the innermost enclosing main-lane span — the experiment call
// that scheduled the cell.
func spanTree(spans []obs.Span) []int {
	parent := make([]int, len(spans))
	stacks := map[int][]int{}
	encloses := func(p, c int) bool {
		return !spans[p].Start.After(spans[c].Start) && !spanEnd(spans[p]).Before(spanEnd(spans[c]))
	}
	innermost := func(lane, c int) int {
		st := stacks[lane]
		for len(st) > 0 && !encloses(st[len(st)-1], c) {
			st = st[:len(st)-1]
		}
		stacks[lane] = st
		if len(st) == 0 {
			return -1
		}
		return st[len(st)-1]
	}
	for _, i := range spanOrder(spans) {
		lane := spans[i].Lane
		p := innermost(lane, i)
		if p < 0 && lane != 0 {
			p = innermost(0, i)
		}
		parent[i] = p
		stacks[lane] = append(stacks[lane], i)
	}
	return parent
}

// selfShares charges the covered wall-clock to spans: between consecutive
// span boundaries the interval is split evenly among the open spans with no
// open child. The shares sum to the time at least one span is open.
func selfShares(spans []obs.Span, parent []int) []float64 {
	type event struct {
		t    time.Time
		i    int
		open bool
	}
	rank := make([]int, len(spans))
	for r, i := range spanOrder(spans) {
		rank[i] = r
	}
	events := make([]event, 0, 2*len(spans))
	for i, sp := range spans {
		events = append(events, event{sp.Start, i, true}, event{spanEnd(sp), i, false})
	}
	sort.Slice(events, func(a, b int) bool {
		x, y := events[a], events[b]
		if !x.t.Equal(y.t) {
			return x.t.Before(y.t)
		}
		if x.open != y.open {
			return !x.open // close before open at the same instant
		}
		if x.open {
			return rank[x.i] < rank[y.i] // parents open first
		}
		return rank[x.i] > rank[y.i] // children close first
	})
	shares := make([]float64, len(spans))
	open := make([]bool, len(spans))
	kids := make([]int, len(spans))
	active := map[int]bool{}
	var last time.Time
	for _, e := range events {
		if len(active) > 0 {
			dt := e.t.Sub(last).Seconds() / float64(len(active))
			for i := range active {
				shares[i] += dt
			}
		}
		last = e.t
		p := parent[e.i]
		if e.open {
			open[e.i] = true
			active[e.i] = true
			if p >= 0 && open[p] {
				kids[p]++
				delete(active, p)
			}
			continue
		}
		open[e.i] = false
		delete(active, e.i)
		if p >= 0 && open[p] {
			kids[p]--
			if kids[p] == 0 {
				active[p] = true
			}
		}
	}
	return shares
}

// analyze turns one traced pass into per-layer metrics. carried holds
// counter values that long-lived caches brought into the registry from
// earlier passes; they are subtracted so every count is this pass's own.
func analyze(ob *obs.Observer, wall time.Duration, composed bool, carried map[string]int64) map[string]metric {
	spans := ob.Trace.Spans()
	snap := ob.Reg.Snapshot()
	count := func(name string) float64 { return float64(snap.Counters[name] - carried[name]) }
	ratio := func(hit, miss float64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return hit / (hit + miss)
	}
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	parent := spanTree(spans)
	shares := selfShares(spans, parent)
	layer := map[string]float64{}
	for _, l := range timeLayers {
		layer[l] = 0
	}
	var attributed float64
	for i, sp := range spans {
		if l := layerOf(sp, composed); l != "" {
			layer[l] += shares[i]
			attributed += shares[i]
		}
	}
	for l, v := range layer {
		set(l, v, "s")
	}
	set("unattributed_s", wall.Seconds()-attributed, "s")
	set("obs.traced_wall_s", wall.Seconds(), "s")
	set("obs.spans", float64(len(spans)), "count")

	// Scheduler cells: busy time, the slowest cell, and lane idle time —
	// lanes × call wall − cell time inside each experiment call, i.e. the
	// time lanes wait on the slowest cell of a call.
	var cells int
	var busy, maxCell, idle float64
	cellsOf := map[int][]int{}
	for i, sp := range spans {
		if sp.Name != "cell" {
			continue
		}
		cells++
		busy += sp.Dur.Seconds()
		maxCell = max(maxCell, sp.Dur.Seconds())
		if p := parent[i]; p >= 0 {
			cellsOf[p] = append(cellsOf[p], i)
		}
	}
	for p, kids := range cellsOf {
		lanes := map[int]bool{}
		var kidTime float64
		for _, k := range kids {
			lanes[spans[k].Lane] = true
			kidTime += spans[k].Dur.Seconds()
		}
		idle += float64(len(lanes))*spans[p].Dur.Seconds() - kidTime
	}
	set("harness.cells", float64(cells), "count")
	set("harness.cell_busy_s", busy, "s")
	set("harness.cell_max_s", maxCell, "s")
	set("harness.lane_idle_s", idle, "s")
	set("harness.build_hit_ratio", ratio(count(obs.MBuildHits), count(obs.MBuildMisses)), "ratio")
	set("harness.golden_hit_ratio", ratio(count(obs.MGoldenHits), count(obs.MGoldenMisses)), "ratio")
	set("harness.builds", count(obs.MBuildMisses), "count")

	// Golden runs and per-phase plan counts come from span attributes.
	var goldenRuns, goldenInsts, irPlans float64
	for _, sp := range spans {
		switch {
		case sp.Name == "golden":
			goldenRuns++
			goldenInsts += number(sp.Attrs["dyn_insts"])
		case sp.Name == "inject" && isIRCell(sp.Cell):
			irPlans += number(sp.Attrs["plans"])
		}
	}
	set("machine.golden_runs", goldenRuns+count(obs.MGoldenMisses), "count")
	set("machine.golden_insts", goldenInsts, "count")
	set("ir.plans", irPlans, "count")

	// Per-plan cost. Every executed plan of a checkpointed campaign either
	// restores a snapshot or starts cold.
	executed := count(obs.MCkptRestores) + count(obs.MCkptColdStarts)
	set("fi.plans_executed", executed, "count")
	usPerPlan := 0.0
	if executed > 0 {
		usPerPlan = layer["fi.inject_s"] / executed * 1e6
	}
	set("fi.us_per_plan", usPerPlan, "us")
	set("fi.restores", count(obs.MCkptRestores), "count")
	set("fi.cold_starts", count(obs.MCkptColdStarts), "count")
	set("fi.snapshot_bytes", count(obs.MCkptBytes), "bytes")
	set("machine.skipped_insts", count(obs.MCkptSkippedInsts), "count")
	set("machine.blocks_entered", count(obs.MBlocksEntered), "count")
	set("machine.fused_uops", count(obs.MFusedUops), "count")
	set("fi.journal_records", count(obs.MJournalRecords), "count")
	set("fi.journal_syncs", count(obs.MJournalSyncs), "count")

	// Runaway plans: asm latencies in the open-ended bucket above 2^20
	// cycles, and the cycles every injected fault ran after injection.
	var runaway, suffix float64
	for name, h := range snap.Hists {
		if !strings.HasPrefix(name, obs.MDetectLatencyPrefix+"cycles.") || len(h.Counts) == 0 {
			continue
		}
		runaway += float64(h.Counts[len(h.Counts)-1])
		suffix += h.Sum
	}
	set("fi.runaway_plans", runaway, "count")
	set("machine.suffix_cycles", suffix, "cycles")

	// Compose cache.
	hits, misses := count(obs.MComposeSectionHits), count(obs.MComposeSectionMisses)
	fallbacks := count(obs.MComposedFallbacks)
	set("compose.plans_served", count(obs.MComposePlansServed), "count")
	set("compose.section_hits", hits, "count")
	set("compose.section_misses", misses, "count")
	set("compose.hit_ratio", ratio(hits, misses), "ratio")
	set("compose.fallbacks", fallbacks, "count")
	set("compose.fallback_ratio", ratio(fallbacks, count(obs.MComposedPlans)), "ratio")
	return m
}

// number reads a numeric span attribute (0 if absent).
func number(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}
