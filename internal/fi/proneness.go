package fi

import (
	"fmt"
	"sort"

	"ferrum/internal/machine"
)

// SiteStats aggregates per-static-instruction fault outcomes from a
// profiling campaign: how often faults at that instruction's dynamic
// instances became silent corruptions. This is the empirical
// SDC-proneness signal SDCTune-style selective protection (ref. [9] of the
// paper) ranks instructions by. Every outcome class is counted, so
// Faults == Benigns + SDCs + Detected + Hangs + Crashes always holds.
type SiteStats struct {
	Loc      machine.SiteLoc
	Faults   int
	Benigns  int
	SDCs     int
	Detected int
	Crashes  int
	Hangs    int
	// LatencySum/LatencyN aggregate detection latency (machine cycles from
	// injection to the terminal event) over this location's executed faults.
	// Under pruning only the executed representatives contribute, so
	// LatencyN can be smaller than Faults.
	LatencySum float64
	LatencyN   int
}

// Proneness is the fraction of sampled faults at this location that became
// SDCs.
func (s SiteStats) Proneness() float64 {
	if s.Faults == 0 {
		return 0
	}
	return float64(s.SDCs) / float64(s.Faults)
}

// MeanLatency is the average detection latency (cycles) over this
// location's executed faults; 0 when none executed.
func (s SiteStats) MeanLatency() float64 {
	if s.LatencyN == 0 {
		return 0
	}
	return s.LatencySum / float64(s.LatencyN)
}

// ProfileProneness runs a fault-injection campaign against the (raw)
// target, attributing every sampled fault to the static instruction it hit
// and aggregating outcome counts per instruction. The result is sorted by
// descending proneness (ties broken by fault count, then location).
//
// It runs through the same engine as RunAsmCampaign — per-worker machines
// (Campaign.Workers), checkpointed fast-forwarding, Progress and Obs
// all behave identically — and aggregates from the per-plan outcome record,
// so the profile is deterministic and independent of worker count.
func ProfileProneness(tgt AsmTarget, c Campaign) ([]SiteStats, error) {
	if c.Compose != ComposeOff {
		// A stratified draw weights sites by section, not uniformly, and
		// composed plans never run to a per-site outcome of their own.
		return nil, fmt.Errorf("fi: compose mode %v is not supported for proneness profiles (per-site attribution needs the uniform plan)", c.Compose)
	}
	// The journaled cell record carries only campaign totals, not the
	// per-site attribution a profile needs, so a complete-cell shortcut
	// would lose data; journaled per-plan outcomes replay fine through
	// runPlans, and the profile writes no cell record of its own.
	if c.Prior != nil && c.Prior.Result != nil {
		c.Prior = &CellState{Plans: c.Prior.Plans}
	}
	var e *asmEngine
	f := &campaign{c: c, profile: true, build: func() (engine, error) {
		var err error
		if e, err = newAsmEngine(tgt, c.MaxSteps); err != nil {
			return nil, err
		}
		e.keepSites = true // siteLoc attributes every plan after the run
		return e, nil
	}}
	if _, err := f.run(); err != nil {
		return nil, err
	}

	// Under pruning the dense outcomes expand back onto the full plan space
	// (pruned plans Benign, deduped plans their representative's outcome);
	// every member of a class shares a static instruction, so per-site
	// attribution composes exactly.
	outcomes := f.expandedOutcomes()
	agg := map[machine.SiteLoc]*SiteStats{}
	at := func(site uint64) *SiteStats {
		loc := e.siteLoc(site)
		if agg[loc] == nil {
			agg[loc] = &SiteStats{Loc: loc}
		}
		return agg[loc]
	}
	for i, o := range outcomes {
		st := at(f.orig[i].site)
		st.Faults++
		switch o {
		case Benign:
			st.Benigns++
		case SDC:
			st.SDCs++
		case Detected:
			st.Detected++
		case Crash:
			st.Crashes++
		case Hang:
			st.Hangs++
		}
	}
	// Latency attributes by the executed plan records (the dense
	// representatives under pruning), not the expanded space: only executed
	// faults measured anything.
	for _, r := range f.recs {
		if !r.HasLat {
			continue
		}
		st := at(r.Site)
		st.LatencySum += r.Lat
		st.LatencyN++
	}
	out := make([]SiteStats, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Proneness(), out[j].Proneness()
		if pi != pj {
			return pi > pj
		}
		if out[i].Faults != out[j].Faults {
			return out[i].Faults > out[j].Faults
		}
		if out[i].Loc.Fn != out[j].Loc.Fn {
			return out[i].Loc.Fn < out[j].Loc.Fn
		}
		return out[i].Loc.Idx < out[j].Loc.Idx
	})
	return out, nil
}
