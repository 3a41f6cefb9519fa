package fi

import (
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

// TestSnapshotScheduleGoldenRun: a converging asm campaign takes its
// checkpoints in the golden run, with no recording run of its own. An
// explicit K puts them at exactly its multiples; the auto schedule ends at
// a power-of-two K with between n and 2n snapshots, n = 4·√Samples, and
// the golden span carries what the recording span used to.
func TestSnapshotScheduleGoldenRun(t *testing.T) {
	tgt := equivTechTarget(t, equivBench(t, "bfs"), "ferrum")
	for _, k := range []uint64{1, 7, 64} {
		f, res := runFlow(t, tgt, Campaign{Samples: 40, Seed: 3, MaxSteps: equivSteps, CheckpointEvery: k})
		if f.g.sched == nil || f.sched != f.g.sched {
			t.Fatalf("K=%d: the golden run did not record the schedule", k)
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

	for _, samples := range []int{1, 5, 80, 1000} {
		ob := obs.New()
		f, res := runFlow(t, tgt, Campaign{Samples: samples, Seed: 3, MaxSteps: equivSteps, Obs: ob.Cell("c", 0)})
		n := uint64(autoSnapshots(samples))
		cp := res.Checkpoint
		if bits.OnesCount64(cp.Interval) != 1 || uint64(cp.Snapshots) != res.DynSites/cp.Interval {
			t.Errorf("Samples=%d: %d snapshots at K=%d over %d sites", samples, cp.Snapshots, cp.Interval, res.DynSites)
		}
		if res.DynSites >= 2*n && (uint64(cp.Snapshots) < n || uint64(cp.Snapshots) > 2*n) {
			t.Errorf("Samples=%d: %d snapshots, want within [%d, %d]", samples, cp.Snapshots, n, 2*n)
		}
		if f.sched != f.g.sched {
			t.Errorf("Samples=%d: schedule not taken in the golden run", samples)
		}
		var golden, record int
		for _, s := range ob.Trace.Spans() {
			switch s.Name {
			case "golden":
				golden++
				if s.Attrs["k"] != cp.Interval || s.Attrs["snapshots"] != cp.Snapshots || s.Attrs["bytes"] != cp.SnapshotBytes {
					t.Errorf("Samples=%d: golden span attrs %v, want k=%d snapshots=%d bytes=%d",
						samples, s.Attrs, cp.Interval, cp.Snapshots, cp.SnapshotBytes)
				}
			case "checkpoint.record":
				record++
			}
		}
		if golden != 1 || record != 0 {
			t.Errorf("Samples=%d: %d golden and %d checkpoint.record spans, want 1 and 0", samples, golden, record)
		}
	}
}

// TestSnapshotScheduleComposeUnchanged: compose keeps recording its
// checkpoints in a run of their own at DefaultCheckpointInterval, because
// its K cuts the sections a composed journal resumes under.
func TestSnapshotScheduleComposeUnchanged(t *testing.T) {
	tgt := equivTechTarget(t, equivBench(t, "bfs"), "ferrum")
	c := Campaign{Samples: 100, Seed: 7, MaxSteps: equivSteps, Compose: ComposeOn}
	f, res := runFlow(t, tgt, c)
	k := DefaultCheckpointInterval(res.DynSites, c.Samples)
	if f.g.sched != nil {
		t.Error("compose took its checkpoints in the golden run")
	}
	if res.Composed.Interval != k || res.Checkpoint.Interval != k {
		t.Errorf("compose interval %d, checkpoint interval %d, want %d", res.Composed.Interval, res.Checkpoint.Interval, k)
	}
	if want := int((res.DynSites + k - 1) / k); len(f.comp.secs) != want {
		t.Fatalf("%d sections, want %d", len(f.comp.secs), want)
	}
	for i, sec := range f.comp.secs {
		if start, end := uint64(i)*k, min(uint64(i+1)*k, res.DynSites); sec.start != start || sec.end != end {
			t.Errorf("section %d = [%d, %d), want [%d, %d)", i, sec.start, sec.end, start, end)
		}
	}
}
