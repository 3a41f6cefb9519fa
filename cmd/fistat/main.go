// Command fistat is the campaign-journal analytics tool: it replays a
// crash-safe NDJSON journal written by reprod/fidi -journal (and optionally
// the -events-out span stream) and renders what the campaign actually did —
// per-campaign outcome tables, per-site outcome strips, detection-latency
// histograms per technique, and a span waterfall — without re-running a
// single fault.
//
// Usage:
//
//	fistat -journal run.ndjson                    # outcome + latency report
//	fistat -journal run.ndjson -events ev.ndjson  # adds the span waterfall
//	fistat -journal run.ndjson -reconcile m.txt   # verify a /metrics scrape
//	fistat -diff old.ndjson new.ndjson            # compare two campaigns
//
// -reconcile cross-checks a saved /metrics scrape (Prometheus text from the
// -serve endpoint) against the journal's own totals, count for count: the
// outcome counters and every detection-latency bucket must match exactly,
// or fistat exits non-zero. This is the four-surface reconciliation check —
// stderr summary, NDJSON metrics record, live scrape, and journal replay
// all derive from the same per-cell records.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ferrum/internal/fi"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fistat:", err)
		os.Exit(1)
	}
}

const numOutcomes = 5

var allOutcomes = [numOutcomes]fi.Outcome{fi.Benign, fi.SDC, fi.Detected, fi.Crash, fi.Hang}

func run(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("fistat", flag.ContinueOnError)
	var (
		journalP  = fs.String("journal", "", "campaign journal (NDJSON) written by reprod/fidi -journal")
		eventsP   = fs.String("events", "", "NDJSON event stream written by -events-out; adds the span waterfall")
		diff      = fs.Bool("diff", false, "compare two journals given as positional arguments: fistat -diff a.ndjson b.ndjson")
		reconcile = fs.String("reconcile", "", "saved /metrics scrape (Prometheus text); verify outcome counters and latency buckets match the journal exactly")
		top       = fs.Int("top", 12, "rows in the hottest-sites table")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *diff {
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff takes exactly two journal paths")
		}
		return runDiff(out, fs.Arg(0), fs.Arg(1))
	}
	if *journalP == "" {
		return fmt.Errorf("-journal is required (or -diff a.ndjson b.ndjson)")
	}
	st, err := fi.LoadJournal(*journalP)
	if err != nil {
		return err
	}
	report(out, *journalP, st, *top)
	if *eventsP != "" {
		if err := waterfall(out, *eventsP); err != nil {
			return err
		}
	}
	if *reconcile != "" {
		return runReconcile(out, st, *reconcile)
	}
	return nil
}

// cellAgg is one campaign cell's journal-derived aggregate. Counts come
// from the cell record when the cell completed (they then include pruned
// and replayed plans); otherwise from the executed plan records alone.
type cellAgg struct {
	key      string
	complete bool
	plans    int // journaled plan records (executed faults)
	counts   [numOutcomes]int
	samples  int
	lat      fi.LatencySummary
	sites    map[uint64][numOutcomes]int
	maxSite  uint64
}

func aggregate(st *fi.JournalState) []*cellAgg {
	var aggs []*cellAgg
	for _, key := range st.Keys() {
		cs := st.Cell(key)
		a := &cellAgg{key: key, plans: len(cs.Plans), sites: map[uint64][numOutcomes]int{}}
		if cs.Result != nil {
			a.complete = true
			a.samples = cs.Result.Samples
			for i := range allOutcomes {
				a.counts[i] = cs.Result.Counts[i]
			}
			a.lat = cs.Result.Latency
		} else {
			// Partial cell: replay the executed plan records. The unit is
			// unknown without the cell record; the per-plan latencies still
			// bucket on the shared geometry.
			a.samples = len(cs.Plans)
			for _, r := range cs.Plans {
				a.counts[r.Outcome]++
				if r.HasLat {
					a.lat.Observe(r.Outcome, r.Lat)
				}
			}
		}
		for _, r := range cs.Plans {
			row := a.sites[r.Site]
			row[r.Outcome]++
			a.sites[r.Site] = row
			a.maxSite = max(a.maxSite, r.Site)
		}
		aggs = append(aggs, a)
	}
	return aggs
}

// technique extracts the grouping segment from a journal key: the first
// path segment matching a known technique name, else the whole key. reprod
// keys look like "fig10/bfs/ferrum", fidi keys like "bfs/ferrum/asm".
func technique(key string) string {
	for _, seg := range strings.Split(key, "/") {
		switch seg {
		case "raw", "ir-level-eddi", "hybrid-assembly-level-eddi", "ferrum":
			return seg
		}
	}
	return key
}

func report(out io.Writer, path string, st *fi.JournalState, top int) {
	complete, partial := st.Cells()
	fmt.Fprintf(out, "journal: %s\n", path)
	m := st.Meta
	fmt.Fprintf(out, "meta: tool=%s", m.Tool)
	if m.Exp != "" {
		fmt.Fprintf(out, " exp=%s", m.Exp)
	}
	if m.Technique != "" {
		fmt.Fprintf(out, " technique=%s level=%s", m.Technique, m.Level)
	}
	fmt.Fprintf(out, " seed=%d samples=%d\n", m.Seed, m.Samples)
	fmt.Fprintf(out, "cells: %d complete, %d partial\n\n", complete, partial)

	aggs := aggregate(st)

	// Per-campaign outcome table.
	tw := newTable("campaign", "state", "plans", "benign", "sdc", "detected", "crash", "hang", "sdc-rate")
	var totals [numOutcomes]int
	totalPlans := 0
	for _, a := range aggs {
		state := "partial"
		if a.complete {
			state = "complete"
		}
		totalPlans += a.samples
		row := []string{a.key, state, fmt.Sprintf("%d", a.samples)}
		for i := range allOutcomes {
			totals[i] += a.counts[i]
			row = append(row, fmt.Sprintf("%d", a.counts[i]))
		}
		rate := 0.0
		if a.samples > 0 {
			rate = float64(a.counts[fi.SDC]) / float64(a.samples)
		}
		row = append(row, fmt.Sprintf("%.3f", rate))
		tw.add(row...)
	}
	fmt.Fprint(out, tw.String())
	var parts []string
	for i, o := range allOutcomes {
		if totals[i] > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", totals[i], o))
		}
	}
	fmt.Fprintf(out, "\noutcomes: %d plans across %d campaigns: %s\n\n",
		totalPlans, len(aggs), strings.Join(parts, ", "))

	composeReport(out, st)

	// Detection-latency histograms, merged per technique (and unit).
	type techLat struct {
		tech string
		lat  fi.LatencySummary
	}
	byTech := map[string]*techLat{}
	var techs []string
	for _, a := range aggs {
		if a.lat.N() == 0 {
			continue
		}
		k := technique(a.key) + "|" + a.lat.Unit
		tl := byTech[k]
		if tl == nil {
			tl = &techLat{tech: technique(a.key)}
			byTech[k] = tl
			techs = append(techs, k)
		}
		tl.lat.Merge(a.lat)
	}
	sort.Strings(techs)
	if len(techs) > 0 {
		fmt.Fprintf(out, "detection latency by technique (executed faults; p-quantiles are bucket upper bounds):\n")
		lt := newTable("technique", "unit", "outcome", "n", "mean", "p50<=", "p90<=", "p99<=", "max")
		for _, k := range techs {
			tl := byTech[k]
			unit := tl.lat.Unit
			if unit == "" {
				unit = "?"
			}
			name := tl.tech
			for _, o := range allOutcomes {
				h := tl.lat.Hist(o)
				if h.N == 0 {
					continue
				}
				lt.add(name, unit, o.String(), fmt.Sprintf("%d", h.N),
					fmt.Sprintf("%.0f", h.Mean()), fmt.Sprintf("%.0f", h.Quantile(0.5)),
					fmt.Sprintf("%.0f", h.Quantile(0.9)), fmt.Sprintf("%.0f", h.Quantile(0.99)),
					fmt.Sprintf("%.0f", h.Max))
				name, unit = "", ""
			}
		}
		fmt.Fprint(out, lt.String())
		fmt.Fprintln(out)
	}

	// Per-site outcome strip: execution position (dynamic site index,
	// normalised 0→100%) binned into 40 columns, each showing the dominant
	// non-benign outcome of the faults injected there.
	strips := false
	for _, a := range aggs {
		if len(a.sites) > 0 {
			strips = true
			break
		}
	}
	if strips {
		const bins = 40
		fmt.Fprintf(out, "per-site outcomes (execution position 0→100%%; S=sdc D=detected C=crash H=hang .=benign):\n")
		width := 0
		for _, a := range aggs {
			if len(a.key) > width {
				width = len(a.key)
			}
		}
		for _, a := range aggs {
			if len(a.sites) == 0 {
				continue
			}
			var grid [bins][numOutcomes]int
			for site, row := range a.sites {
				b := 0
				if a.maxSite > 0 {
					b = int(uint64(bins-1) * site / a.maxSite)
				}
				for i, n := range row {
					grid[b][i] += n
				}
			}
			strip := make([]byte, bins)
			for b := range grid {
				strip[b] = dominant(grid[b])
			}
			fmt.Fprintf(out, "  %-*s [%s]\n", width, a.key, strip)
		}
		fmt.Fprintln(out)

		// Hottest sites: the dynamic sites whose faults most often escaped
		// benign, with their mean detection latency where measured.
		type hot struct {
			key      string
			site     uint64
			row      [numOutcomes]int
			nonBen   int
			latSum   float64
			latCount int
		}
		var hots []hot
		for _, a := range aggs {
			cs := st.Cell(a.key)
			perSiteLat := map[uint64][2]float64{} // site -> {sum, n}
			for _, r := range cs.Plans {
				if r.HasLat {
					v := perSiteLat[r.Site]
					perSiteLat[r.Site] = [2]float64{v[0] + r.Lat, v[1] + 1}
				}
			}
			for site, row := range a.sites {
				nb := 0
				for i, n := range row {
					if allOutcomes[i] != fi.Benign {
						nb += n
					}
				}
				if nb == 0 {
					continue
				}
				v := perSiteLat[site]
				hots = append(hots, hot{a.key, site, row, nb, v[0], int(v[1])})
			}
		}
		sort.Slice(hots, func(i, j int) bool {
			if hots[i].nonBen != hots[j].nonBen {
				return hots[i].nonBen > hots[j].nonBen
			}
			if hots[i].key != hots[j].key {
				return hots[i].key < hots[j].key
			}
			return hots[i].site < hots[j].site
		})
		if len(hots) > top {
			hots = hots[:top]
		}
		if len(hots) > 0 {
			fmt.Fprintf(out, "hottest sites (top %d by non-benign faults):\n", len(hots))
			ht := newTable("campaign", "site", "sdc", "detected", "crash", "hang", "mean-latency")
			for _, h := range hots {
				lat := "-"
				if h.latCount > 0 {
					lat = fmt.Sprintf("%.0f", h.latSum/float64(h.latCount))
				}
				ht.add(h.key, fmt.Sprintf("%d", h.site),
					fmt.Sprintf("%d", h.row[fi.SDC]), fmt.Sprintf("%d", h.row[fi.Detected]),
					fmt.Sprintf("%d", h.row[fi.Crash]), fmt.Sprintf("%d", h.row[fi.Hang]), lat)
			}
			fmt.Fprint(out, ht.String())
			fmt.Fprintln(out)
		}
	}
}

func dominant(row [numOutcomes]int) byte {
	total := 0
	for _, n := range row {
		total += n
	}
	if total == 0 {
		return ' '
	}
	best, bestN := fi.Benign, 0
	for i, n := range row {
		o := allOutcomes[i]
		if o == fi.Benign {
			continue
		}
		if n > bestN {
			best, bestN = o, n
		}
	}
	switch best {
	case fi.SDC:
		return 'S'
	case fi.Detected:
		return 'D'
	case fi.Crash:
		return 'C'
	case fi.Hang:
		return 'H'
	}
	return '.'
}
