package harness

import (
	"reflect"
	"testing"

	"ferrum/internal/fi"
	"ferrum/internal/obs"
)

// TestComposeWarmEquiv: a composed Fig10 re-run on a warm BuildCache, whose
// build entries carry the compose key memo and the golden site-count hint,
// reproduces the cold run. Every warm Result equals the cold one apart from
// the execution counters, no warm plan executes, every warm golden run
// starts from its exact site count without re-running, the section keys
// equal those of a run on a fresh cache, and each cell looks its build up
// once.
func TestComposeWarmEquiv(t *testing.T) {
	opts := Options{Samples: 200, Seed: 9, Benchmarks: []string{"bfs", "knn"},
		Compose: fi.ComposeOn, CellWorkers: 2}
	cache := NewBuildCache()
	withCache := func(c *BuildCache, ob *obs.Observer) Options {
		o := opts
		o.Cache, o.Obs = c, ob
		return o
	}
	cold, err := Fig10(withCache(cache, nil))
	if err != nil {
		t.Fatal(err)
	}
	ob := obs.New()
	warm, err := Fig10(withCache(cache, ob))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Fig10(withCache(NewBuildCache(), nil))
	if err != nil {
		t.Fatal(err)
	}

	cells := 0
	for i := range cold {
		for tech, c := range cold[i].Counts {
			cells++
			name := cold[i].Benchmark + "/" + string(tech)
			w, f := warm[i].Counts[tech], fresh[i].Counts[tech]
			if w.Checkpoint.Restores != 0 || w.Checkpoint.ColdStarts != 0 {
				t.Errorf("%s: the warm run executed plans: %+v", name, w.Checkpoint)
			}
			for _, r := range []*fi.Result{&c, &w} {
				r.Checkpoint.Restores, r.Checkpoint.ColdStarts, r.Checkpoint.SkippedInsts = 0, 0, 0
			}
			if !reflect.DeepEqual(w, c) {
				t.Errorf("%s: warm Result differs from cold:\nwarm %+v\ncold %+v", name, w, c)
			}
			if !reflect.DeepEqual(w.Composed.Rows, f.Composed.Rows) {
				t.Errorf("%s: warm sections differ from a fresh cache's:\nwarm  %+v\nfresh %+v", name, w.Composed.Rows, f.Composed.Rows)
			}
		}
	}

	goldens := 0
	for _, s := range ob.Trace.Spans() {
		if s.Name != "golden" {
			continue
		}
		goldens++
		if s.Attrs["hint_sites"] != s.Attrs["dyn_sites"] || s.Attrs["start_k"] != s.Attrs["k"] {
			t.Errorf("warm golden run not started from its site count: %v", s.Attrs)
		}
	}
	snap := ob.Reg.Snapshot()
	if goldens != cells || snap.Counters[obs.MCkptHintReruns] != 0 {
		t.Errorf("%d warm golden spans for %d cells, %d hint reruns; want one each and none",
			goldens, cells, snap.Counters[obs.MCkptHintReruns])
	}
	if st := cache.Stats(); st.BuildMisses != cells || st.BuildHits != cells {
		t.Errorf("cold then warm: %d build misses and %d hits, want %d each", st.BuildMisses, st.BuildHits, cells)
	}
}
