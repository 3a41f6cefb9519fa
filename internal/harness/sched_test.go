package harness

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ferrum/internal/obs"
)

// TestSchedulerDeterminism: rendered tables must be byte-identical whatever
// the cell-worker count — fault plans are pre-generated per cell from the
// seed and results land in per-cell slots, so parallelism can only change
// wall-clock, never a byte of output.
func TestSchedulerDeterminism(t *testing.T) {
	base := Options{Samples: 80, Seed: 7, Benchmarks: []string{"bfs", "knn"}}

	serial := base
	serial.CellWorkers = 1
	parallel := base
	parallel.CellWorkers = 8

	r1, err := Fig10(serial)
	if err != nil {
		t.Fatal(err)
	}
	rN, err := Fig10(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := RenderFig10(r1), RenderFig10(rN); a != b {
		t.Errorf("Fig10 output differs between cell-workers=1 and 8:\n%s\n---\n%s", a, b)
	}

	g1, err := Gap(serial)
	if err != nil {
		t.Fatal(err)
	}
	gN, err := Gap(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := RenderGap(g1), RenderGap(gN); a != b {
		t.Errorf("Gap output differs between cell-workers=1 and 8:\n%s\n---\n%s", a, b)
	}
}

// TestBuildCacheCounts: a shared cache across a two-experiment run performs
// each (benchmark, technique, optimize) build once. Fig11 populates
// builds and goldens (4 techniques × 1 benchmark); Fig10 then reuses every
// build without a single new compilation.
func TestBuildCacheCounts(t *testing.T) {
	cache := NewBuildCache()
	opts := Options{
		Samples: 60, Seed: 9, Benchmarks: []string{"bfs"},
		Cache: cache, CellWorkers: 4,
	}

	if _, err := Fig11(opts); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.BuildMisses != 4 || st.BuildHits != 0 {
		t.Errorf("after Fig11: builds = %d misses, %d hits; want 4, 0", st.BuildMisses, st.BuildHits)
	}
	if st.GoldenMisses != 4 || st.GoldenHits != 0 {
		t.Errorf("after Fig11: goldens = %d misses, %d hits; want 4, 0", st.GoldenMisses, st.GoldenHits)
	}

	if _, err := Fig10(opts); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.BuildMisses != 4 {
		t.Errorf("Fig10 recompiled: %d build misses, want still 4", st.BuildMisses)
	}
	if st.BuildHits != 4 {
		t.Errorf("Fig10 after Fig11: %d build hits, want 4", st.BuildHits)
	}

	// A second Fig11 answers entirely from the golden cache.
	if _, err := Fig11(opts); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.GoldenMisses != 4 || st.GoldenHits != 4 {
		t.Errorf("repeat Fig11: goldens = %d misses, %d hits; want 4, 4", st.GoldenMisses, st.GoldenHits)
	}
}

// TestPrivateCachePerCall: without an explicit cache each call builds its
// own, so results stay correct (no sharing assertions, just behaviour).
func TestPrivateCachePerCall(t *testing.T) {
	opts := Options{Samples: 60, Seed: 9, Benchmarks: []string{"bfs"}}
	a, err := Fig11(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig11(opts)
	if err != nil {
		t.Fatal(err)
	}
	if RenderFig11(a) != RenderFig11(b) {
		t.Error("repeated Fig11 calls with private caches differ")
	}
}

// TestProgressEvents: every cell emits one start and one completion event,
// and completion events carry wall-clock and injection counts.
func TestProgressEvents(t *testing.T) {
	var mu sync.Mutex
	var events []CellEvent
	opts := Options{
		Samples: 50, Seed: 11, Benchmarks: []string{"bfs"}, CellWorkers: 4,
		Progress: func(ev CellEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	}
	if _, err := Fig10(opts); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	starts, dones, injections := 0, 0, 0
	for _, ev := range events {
		if ev.Experiment != "fig10" {
			t.Errorf("event experiment = %q", ev.Experiment)
		}
		if ev.Total != 4 {
			t.Errorf("event total = %d, want 4 cells", ev.Total)
		}
		if !strings.Contains(ev.Cell, "bfs/") {
			t.Errorf("cell name = %q", ev.Cell)
		}
		if ev.Done {
			dones++
			injections += ev.Injections
			if ev.Wall <= 0 {
				t.Errorf("completed cell %q has no wall-clock", ev.Cell)
			}
			if ev.Err != nil {
				t.Errorf("cell %q failed: %v", ev.Cell, ev.Err)
			}
		} else {
			starts++
		}
	}
	if starts != 4 || dones != 4 {
		t.Errorf("events = %d starts, %d dones; want 4, 4", starts, dones)
	}
	if injections != 4*50 {
		t.Errorf("injections = %d, want %d", injections, 4*50)
	}
}

// TestProgressOrderingConcurrent: under concurrent cells, every cell's
// start event arrives before its completion event, and callbacks are
// serialised through the scheduler's progressMu — the callback body never
// runs concurrently with itself, so implementations need no locking.
func TestProgressOrderingConcurrent(t *testing.T) {
	var inCallback atomic.Int32
	started := map[string]int{}
	finished := map[string]int{}
	opts := Options{
		Samples: 40, Seed: 3, Benchmarks: []string{"bfs", "knn"}, CellWorkers: 8,
		Progress: func(ev CellEvent) {
			if inCallback.Add(1) != 1 {
				t.Error("Progress callback ran concurrently with itself")
			}
			defer inCallback.Add(-1)
			if ev.Done {
				if started[ev.Cell] != 1 {
					t.Errorf("cell %q finished with %d start events", ev.Cell, started[ev.Cell])
				}
				finished[ev.Cell]++
			} else {
				if finished[ev.Cell] != 0 {
					t.Errorf("cell %q started after finishing", ev.Cell)
				}
				started[ev.Cell]++
			}
		},
	}
	if _, err := Fig10(opts); err != nil {
		t.Fatal(err)
	}
	if len(started) != 8 || len(finished) != 8 {
		t.Errorf("cells = %d started, %d finished; want 8, 8 (2 benches × 4 techniques)",
			len(started), len(finished))
	}
	for cell, n := range finished {
		if n != 1 || started[cell] != 1 {
			t.Errorf("cell %q: %d starts, %d finishes; want exactly 1 each", cell, started[cell], n)
		}
	}
}

// TestObserverCounters: an injected observer ends a suite with a registry
// whose sched.* and fi.* counters reconcile with each other and with the
// legacy CacheStats adapter.
func TestObserverCounters(t *testing.T) {
	ob := obs.New()
	opts := Options{
		Samples: 50, Seed: 5, Benchmarks: []string{"bfs"}, CellWorkers: 4, Obs: ob,
	}
	if _, err := Fig10(opts); err != nil {
		t.Fatal(err)
	}
	s := ob.Reg.Snapshot()
	if s.Counters[obs.MCells] != 4 {
		t.Errorf("sched.cells = %d, want 4", s.Counters[obs.MCells])
	}
	if s.Counters[obs.MInjections] != 200 || s.Counters[obs.MPlans] != 200 {
		t.Errorf("injections = %d, plans = %d; want 200, 200",
			s.Counters[obs.MInjections], s.Counters[obs.MPlans])
	}
	if s.Counters[obs.MCampaigns] != 4 {
		t.Errorf("fi.campaigns = %d, want 4", s.Counters[obs.MCampaigns])
	}
	var outcomes int64
	for _, o := range []string{"benign", "sdc", "detected", "crash", "hang"} {
		outcomes += s.Counters[obs.MOutcomePrefix+o]
	}
	if outcomes != 200 {
		t.Errorf("outcome counters sum to %d, want 200", outcomes)
	}
	if got := s.Counters[obs.MBuildMisses]; got != 4 {
		t.Errorf("cache.build_misses = %d, want 4", got)
	}
	// Spans exist for every phase the cells went through.
	byName := map[string]int{}
	for _, sp := range ob.Trace.Spans() {
		byName[sp.Name]++
	}
	for _, name := range []string{"cell", "build", "golden", "inject"} {
		if byName[name] != 4 {
			t.Errorf("%d %q spans, want 4 (one per cell)", byName[name], name)
		}
	}
	for _, sp := range ob.Trace.Spans() {
		if sp.Name == "cell" && sp.Lane == 0 {
			t.Errorf("cell %q ran on lane 0; cells belong to worker lanes >= 1", sp.Cell)
		}
	}
	// Histogram sanity: one cell-wall observation per cell.
	if h := s.Hists[obs.HCellWallMS]; h.Count != 4 {
		t.Errorf("cell wall histogram count = %d, want 4", h.Count)
	}
}

// TestSeedZeroHonest: seed 0 is a real seed, not an alias for the default —
// the regression was Options.withDefaults silently replacing 0 with
// DefaultSeed, so `reprod -seed 0` ran a different experiment than asked.
func TestSeedZeroHonest(t *testing.T) {
	o := Options{Seed: 0}.withDefaults()
	if o.Seed != 0 {
		t.Fatalf("withDefaults rewrote seed 0 to %d", o.Seed)
	}
	zero, err := Options{Benchmarks: []string{"bfs"}, Seed: 0}.withDefaults().instances()
	if err != nil {
		t.Fatal(err)
	}
	def, err := Options{Benchmarks: []string{"bfs"}, Seed: DefaultSeed}.withDefaults().instances()
	if err != nil {
		t.Fatal(err)
	}
	same := len(zero[0].Words) == len(def[0].Words)
	if same {
		for i := range zero[0].Words {
			if zero[0].Words[i] != def[0].Words[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seed 0 produced the DefaultSeed memory image; zero is not being honoured")
	}
}

// TestSchedulerErrorLowestIndex: the parallel scheduler reports the same
// error a serial sweep would have hit first.
func TestSchedulerErrorLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		opts := Options{Samples: 40, Seed: 1, CellWorkers: workers}.withDefaults()
		s := newScheduler("test", opts)
		var cells []cellSpec
		for i := 0; i < 8; i++ {
			cells = append(cells, cellSpec{
				name: "cell",
				run: func(*cellCtx) error {
					if i >= 3 {
						return fmt.Errorf("cell %d failed", i)
					}
					return nil
				},
			})
		}
		err := s.run(cells)
		if err == nil || err.Error() != "cell 3 failed" {
			t.Errorf("workers=%d: err = %v, want cell 3 failed", workers, err)
		}
	}
}
