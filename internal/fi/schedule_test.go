package fi

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"ferrum/internal/compose"
	"ferrum/internal/machine"
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
		f, res := runFlow(t, tgt, Campaign{Samples: 40, Seed: 3, MaxSteps: equivSteps, every: k})
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
		c := Campaign{Samples: 100, Seed: 7, MaxSteps: equivSteps, Compose: ComposeOn, every: every}
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

// hintSnap is what a kept snapshot must keep under a site-count hint.
type hintSnap struct {
	sites  uint64
	size   int
	digest uint64
}

func hintSnaps(snaps []*machine.Snapshot) []hintSnap {
	out := make([]hintSnap, len(snaps))
	for i, s := range snaps {
		out[i] = hintSnap{s.Sites(), s.Size(), s.Digest()}
	}
	return out
}

// TestSnapshotScheduleHint: a golden run whose schedule starts at the K a
// site-count hint implies keeps exactly the snapshots of one started at
// K = 1. For bfs and particlefilter, raw and FERRUM, under the dense,
// sparse and compose rules, a hint of none, the exact count, half of it
// and four times it give the same snapshot sites, sizes and digests (and
// under the dense and compose rules the same Result), and only the
// four-fold hint, which starts the schedule above its K, runs the golden
// run again and counts it. An explicit K ignores the hint. A program
// edited in place and re-run with its old hint against a warm section
// cache gives the table of a fresh cache.
func TestSnapshotScheduleHint(t *testing.T) {
	rules := []struct {
		name    string
		irLevel bool // the sparse rule, run on the machine directly
		c       Campaign
	}{
		{"dense", false, Campaign{Samples: 60, Seed: 5, MaxSteps: equivSteps, Workers: 2}},
		{"sparse", true, Campaign{Samples: 60, Seed: 5, MaxSteps: equivSteps}},
		{"compose", false, Campaign{Samples: 60, Seed: 5, MaxSteps: equivSteps, Workers: 2, Compose: ComposeOn}},
	}
	for _, bench := range []string{"bfs", "particlefilter"} {
		inst := equivBench(t, bench)
		for _, tech := range []string{"raw", "ferrum"} {
			tgt := equivTechTarget(t, inst, tech)
			for _, rule := range rules {
				// golden runs the rule's golden run with the hint and returns
				// its kept snapshots, the K it started at, whether it ran
				// again, and the campaign Result (only DynSites for the
				// sparse rule).
				golden := func(hint uint64) ([]hintSnap, uint64, bool, Result) {
					ht := tgt
					ht.Sites = hint
					if !rule.irLevel {
						ob := obs.New()
						c := rule.c
						c.Obs = ob.Cell("c", 0)
						f, res := runFlow(t, ht, c)
						if n := ob.Reg.Snapshot().Counters[obs.MCkptHintReruns]; n != map[bool]int64{true: 1}[f.g.reran] {
							t.Errorf("%s/%s %s hint=%d: ckpt.hint_reruns = %d with reran %v", bench, tech, rule.name, hint, n, f.g.reran)
						}
						for _, s := range ob.Trace.Spans() {
							if s.Name == "golden" && (s.Attrs["hint_sites"] != hint || s.Attrs["start_k"] != f.g.startK) {
								t.Errorf("%s/%s %s hint=%d: golden span attrs %v, want hint_sites=%d start_k=%d",
									bench, tech, rule.name, hint, s.Attrs, hint, f.g.startK)
							}
						}
						return hintSnaps(f.eng.(*asmEngine).sched.Checkpoints), f.g.startK, f.g.reran, res
					}
					m, err := machineNew(ht)
					if err != nil {
						t.Fatal(err)
					}
					defer m.Release()
					var res Result
					s, start, reran := hintedGolden(rule.c, true, hint, func(s *machine.Checkpoints, expect uint64) (uint64, bool) {
						r := m.Run(machine.RunOpts{Args: ht.Args, MaxSteps: equivSteps, RecordSiteStatics: true,
							Checkpoints: s, ExpectSites: expect})
						res.DynSites = r.DynSites
						return r.DynSites, r.Outcome == machine.OutcomeOK
					})
					return hintSnaps(s.Snaps), start, reran, res
				}
				want, start, reran, wantRes := golden(0)
				if start != 1 || reran || len(want) == 0 {
					t.Fatalf("%s/%s %s: unhinted run started at K=%d, reran %v, kept %d snapshots", bench, tech, rule.name, start, reran, len(want))
				}
				d := wantRes.DynSites
				for _, hint := range []uint64{d, d / 2, 4 * d} {
					got, start, reran, res := golden(hint)
					name := fmt.Sprintf("%s/%s %s hint=%d (DynSites %d)", bench, tech, rule.name, hint, d)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: kept snapshots differ from the unhinted run's:\ngot  %v\nwant %v", name, got, want)
					}
					if !rule.irLevel && !reflect.DeepEqual(res, wantRes) {
						t.Errorf("%s: Result differs from the unhinted run's:\ngot  %+v\nwant %+v", name, res, wantRes)
					}
					if reran != (hint > d) {
						t.Errorf("%s: reran %v, want %v", name, reran, hint > d)
					}
					if start <= 1 {
						t.Errorf("%s: the hinted schedule started at K=%d", name, start)
					}
				}
			}

			// An explicit K takes no start from the hint and never re-runs,
			// and an absurd hint allocates no more than the step budget.
			ht := tgt
			ht.Sites = 1 << 40
			f, res := runFlow(t, ht, Campaign{Samples: 60, Seed: 5, MaxSteps: equivSteps, every: 64})
			if f.g.startK != 64 || f.g.reran || res.Checkpoint.Interval != 64 {
				t.Errorf("%s/%s explicit K=64: started at %d, reran %v, interval %d", bench, tech, f.g.startK, f.g.reran, res.Checkpoint.Interval)
			}
		}
	}

	// The stale-table condition: edit a program in place so that it retires
	// about half its sites, and re-run it with the old hint and the warm
	// section cache. The hint starts the schedule too high and the golden
	// run re-runs; the table must be the fresh cache's.
	tgt := twoKernelTarget(t, twoKernelSrc)
	c := Campaign{Samples: 200, Seed: 11, MaxSteps: equivSteps, Workers: 2, Compose: ComposeOn,
		SectionCache: compose.NewCache()}
	first, err := RunAsmCampaign(tgt, c)
	if err != nil {
		t.Fatal(err)
	}
	edited := twoKernelTarget(t, replaceOnce(t, twoKernelSrc,
		"%b = call @kernelB(%base, %n)\n  out %b\n  ret %b", "ret %a"))
	*tgt.Prog = *edited.Prog
	tgt.Sites = first.DynSites
	ob := obs.New()
	warm := c
	warm.Obs = ob.Cell("c", 0)
	got, err := RunAsmCampaign(tgt, warm)
	if err != nil {
		t.Fatal(err)
	}
	fresh := c
	fresh.SectionCache = compose.NewCache()
	want, err := RunAsmCampaign(edited, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if n := ob.Reg.Snapshot().Counters[obs.MCkptHintReruns]; n != 1 || got.DynSites > first.DynSites/2+first.DynSites/8 {
		t.Errorf("edited program: %d hint reruns, DynSites %d -> %d; want one rerun after about halving the sites",
			n, first.DynSites, got.DynSites)
	}
	if got.Counts != want.Counts || !reflect.DeepEqual(got.Composed, want.Composed) || got.Checkpoint.Interval != want.Checkpoint.Interval {
		t.Errorf("edited program with its old hint on a warm cache differs from a fresh cache:\ngot  %v %+v\nwant %v %+v",
			got.Counts, got.Composed, want.Counts, want.Composed)
	}
}
