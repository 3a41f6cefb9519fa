package fi

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"ferrum/internal/obs"
)

// runFlow runs an asm campaign through the flow and returns it, so a test
// can read the checkpoint schedule and sections it settled on.
func runFlow(t *testing.T, tgt AsmTarget, c Campaign) (*campaign, Result) {
	t.Helper()
	f := &campaign{c: c, build: func() (engine, error) { return newAsmEngine(tgt, c.MaxSteps) }}
	res, err := f.run()
	if err != nil {
		t.Fatal(err)
	}
	return f, res
}

// runIRFlow is runFlow for an IR campaign.
func runIRFlow(t *testing.T, tgt IRTarget, c Campaign) (*campaign, Result) {
	t.Helper()
	f := &campaign{c: c, irLevel: true, build: func() (engine, error) { return newIREngine(tgt, c.MaxSteps) }}
	res, err := f.run()
	if err != nil {
		t.Fatal(err)
	}
	return f, res
}

// TestSnapshotScheduleGoldenRun: every checkpointed campaign takes its
// checkpoints in its golden run, with no recording run of its own. An
// explicit K puts them at exactly its multiples. At auto K a converging asm
// campaign ends at a power-of-two K with between n and 2n snapshots, n =
// 4·√Samples. Composed and IR campaigns end at the sparse rule's
// power-of-two K, the smallest whose schedule holds at most 2·⌈√S⌉
// snapshots for S samples; over D dynamic sites it lies below D/√S, and
// for large S it approaches the power of two in [D/(2√S), D/√S). The
// golden span carries the schedule.
func TestSnapshotScheduleGoldenRun(t *testing.T) {
	inst := equivBench(t, "bfs")
	tgt := equivTechTarget(t, inst, "ferrum")
	for _, k := range []uint64{1, 7, 64} {
		f, res := runFlow(t, tgt, Campaign{Samples: 40, Seed: 3, MaxSteps: equivSteps, CheckpointEvery: k})
		if f.g.sched == nil || f.sched != f.g.sched {
			t.Fatalf("K=%d: the golden run did not take the schedule", k)
		}
		if uint64(len(f.sched.sites)) != res.DynSites/k || res.Checkpoint.Interval != k {
			t.Errorf("K=%d: %d snapshots at interval %d over %d sites", k, len(f.sched.sites), res.Checkpoint.Interval, res.DynSites)
		}
		for i, s := range f.sched.sites {
			if s != uint64(i+1)*k {
				t.Fatalf("K=%d: snapshot %d at site %d, want %d", k, i, s, uint64(i+1)*k)
			}
		}
	}

	irTgt := equivIRTarget(t, inst, true)
	type mode struct {
		name   string
		sparse bool
		run    func(c Campaign) (*campaign, Result)
	}
	asm := func(c Campaign) (*campaign, Result) { return runFlow(t, tgt, c) }
	composed := func(c Campaign) (*campaign, Result) { c.Compose = ComposeOn; return runFlow(t, tgt, c) }
	irLevel := func(c Campaign) (*campaign, Result) { return runIRFlow(t, irTgt, c) }
	for _, m := range []mode{{"asm", false, asm}, {"compose", true, composed}, {"ir", true, irLevel}} {
		for _, samples := range []int{1, 5, 80, 300, 1000} {
			name := fmt.Sprintf("%s Samples=%d", m.name, samples)
			ob := obs.New()
			f, res := m.run(Campaign{Samples: samples, Seed: 3, MaxSteps: equivSteps, Obs: ob.Cell("c", 0)})
			cp, d := res.Checkpoint, res.DynSites
			if f.sched == nil || f.sched != f.g.sched {
				t.Fatalf("%s: schedule not taken in the golden run", name)
			}
			if bits.OnesCount64(cp.Interval) != 1 || uint64(cp.Snapshots) != d/cp.Interval {
				t.Errorf("%s: %d snapshots at K=%d over %d sites", name, cp.Snapshots, cp.Interval, d)
			}
			for i, s := range f.sched.sites {
				if s != uint64(i+1)*cp.Interval {
					t.Fatalf("%s: snapshot %d at site %d, want %d", name, i, s, uint64(i+1)*cp.Interval)
				}
			}
			if m.sparse {
				// The smallest power of two whose schedule holds at most
				// mx snapshots: K in (D/(mx+1), 2D/(mx+1)], below D/√S.
				k, sqrtS := cp.Interval, math.Sqrt(float64(samples))
				mx := uint64(2 * math.Ceil(sqrtS))
				if d/k > mx || k > 1 && d/(k/2) <= mx || float64(k) >= float64(d)/sqrtS {
					t.Errorf("%s: K=%d over %d sites, want the smallest power of two with at most %d snapshots, below D/√S = %.1f",
						name, k, d, mx, float64(d)/sqrtS)
				}
			} else if n := uint64(autoSnapshots(ckptPerRootSample, samples)); d >= 2*n && (uint64(cp.Snapshots) < n || uint64(cp.Snapshots) > 2*n) {
				t.Errorf("%s: %d snapshots, want within [%d, %d]", name, cp.Snapshots, n, 2*n)
			}
			var golden, record int
			for _, s := range ob.Trace.Spans() {
				switch s.Name {
				case "golden":
					golden++
					if s.Attrs["k"] != cp.Interval || s.Attrs["snapshots"] != cp.Snapshots || s.Attrs["bytes"] != cp.SnapshotBytes {
						t.Errorf("%s: golden span attrs %v, want k=%d snapshots=%d bytes=%d",
							name, s.Attrs, cp.Interval, cp.Snapshots, cp.SnapshotBytes)
					}
				case "checkpoint.record":
					record++
				}
			}
			if golden != 1 || record != 0 {
				t.Errorf("%s: %d golden and %d checkpoint.record spans, want 1 and 0", name, golden, record)
			}
		}
	}
}

// TestSnapshotScheduleComposeUnchanged: compose still cuts its sections at
// exactly the multiples of its checkpoint K, whether K is explicit or the
// sparse rule's, now that the golden run takes the schedule that K sets.
func TestSnapshotScheduleComposeUnchanged(t *testing.T) {
	tgt := equivTechTarget(t, equivBench(t, "bfs"), "ferrum")
	for _, every := range []uint64{0, 64} {
		c := Campaign{Samples: 100, Seed: 7, MaxSteps: equivSteps, Compose: ComposeOn, CheckpointEvery: every}
		f, res := runFlow(t, tgt, c)
		k, d := res.Checkpoint.Interval, res.DynSites
		if f.sched == nil || f.sched != f.g.sched {
			t.Fatalf("K=%d: compose did not take its checkpoints in the golden run", every)
		}
		if every > 0 && k != every {
			t.Errorf("checkpoint interval %d, want the explicit %d", k, every)
		}
		if res.Composed.Interval != k {
			t.Errorf("K=%d: compose interval %d, checkpoint interval %d", every, res.Composed.Interval, k)
		}
		if want := int((d + k - 1) / k); len(f.comp.secs) != want {
			t.Fatalf("K=%d: %d sections, want %d", every, len(f.comp.secs), want)
		}
		for i, sec := range f.comp.secs {
			if start, end := uint64(i)*k, min(uint64(i+1)*k, d); sec.start != start || sec.end != end {
				t.Errorf("K=%d: section %d = [%d, %d), want [%d, %d)", every, i, sec.start, sec.end, start, end)
			}
		}
	}
}
