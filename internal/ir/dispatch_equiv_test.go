package ir_test

import (
	"math/rand"
	"reflect"
	"testing"

	"ferrum/internal/ir"
	"ferrum/internal/progen"
)

// The IR interpreter's block-segment loop hoists the step budget, fault
// site and checkpoint tests to segment entry and ends a segment where the
// budget runs out or just after its next event site. This property test
// pins it bit-identical to the per-instruction reference loop
// (RunReference) on randomly generated branch-dense programs — golden runs,
// injected faults, step budgets chosen to expire at every interesting
// point, including inside a block segment, checkpoint schedules, whose
// snapshots and the runs resumed from them must match too, and the event
// coincidences: a fault completing a checkpoint multiple, on its block's
// last site, where the budget runs out, and right after a mid-block resume.

func newFuzzInterp(t *testing.T, mod *ir.Module) *ir.Interp {
	t.Helper()
	ip, err := ir.NewInterp(mod, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		if err := ip.WriteWordImage(8192+8*uint64(s), uint64(s*5+3)); err != nil {
			t.Fatal(err)
		}
	}
	return ip
}

// runCkpts runs opts through run with a checkpoint every k sites and
// returns the RunResult with the snapshots the schedule delivered.
func runCkpts(run func(ir.RunOpts) ir.RunResult, opts ir.RunOpts, k uint64) (ir.RunResult, []*ir.Snapshot) {
	opts.Checkpoints = &ir.Checkpoints{Every: k}
	return run(opts), opts.Checkpoints.Snaps
}

func TestEquivIRDispatchTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(77177))
	iters := 15
	if testing.Short() {
		iters = 5
	}
	const maxSteps = 5_000_000
	sameBlock := 0
	for i := 0; i < iters; i++ {
		mod, err := progen.Generate(rng, progen.Options{
			Stmts: 30, Calls: i%3 == 0, BranchDensity: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		args := []uint64{8192, uint64(rng.Int63n(10000)), uint64(rng.Int63n(10000))}
		block := newFuzzInterp(t, mod)
		legacy := newFuzzInterp(t, mod)

		base := ir.RunOpts{Args: args, MaxSteps: maxSteps}
		want := legacy.RunReference(base)
		if want.Outcome != ir.OutcomeOK {
			t.Fatalf("iter %d: golden outcome = %v (%s)\n%s", i, want.Outcome, want.CrashMsg, mod)
		}
		if got := block.Run(base); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: golden RunResult differs:\nblock:  %+v\nlegacy: %+v", i, got, want)
		}

		// Fault parity: the fast loop must hand every segment that could
		// contain the planned site to the per-instruction path.
		if s := want.Sites; s > 0 {
			for _, site := range []uint64{0, s / 3, s / 2, s - 1} {
				for _, bit := range []uint{0, 13, 63} {
					opts := base
					opts.Fault = &ir.Fault{Site: site, Bit: bit}
					fw := legacy.RunReference(opts)
					fg := block.Run(opts)
					if !reflect.DeepEqual(fg, fw) {
						t.Errorf("iter %d site=%d bit=%d: fault RunResult differs:\nblock:  %+v\nlegacy: %+v",
							i, site, bit, fg, fw)
					}
				}
			}
		}

		// Event coincidences the segment loop must order exactly, plain and
		// under a K=5 schedule: a fault that completes a checkpoint
		// multiple, a fault on its block's last site, and a fault on the
		// instruction where the budget runs out.
		if s := want.Sites; s >= 10 {
			last := s / 2
			for _, l := range legacy.BlockLastSites(base) {
				if l >= s/2 {
					last = l
					break
				}
			}
			atLast := base
			atLast.Fault = &ir.Fault{Site: last, Bit: 5}
			budgetOut := atLast
			budgetOut.MaxSteps = legacy.RunReference(atLast).FaultStep
			onMultiple := base
			onMultiple.Fault = &ir.Fault{Site: s/2/5*5 - 1, Bit: 11}
			for what, opts := range map[string]ir.RunOpts{"fault on a block's last site": atLast,
				"budget out on the fault site": budgetOut, "fault on a checkpoint multiple": onMultiple} {
				if fw, fg := legacy.RunReference(opts), block.Run(opts); !reflect.DeepEqual(fg, fw) || !fw.Injected {
					t.Errorf("iter %d %s: RunResult differs or not injected:\nblock:  %+v\nlegacy: %+v", i, what, fg, fw)
				}
				wantK, wantSnaps := runCkpts(legacy.RunReference, opts, 5)
				gotK, gotSnaps := runCkpts(block.Run, opts, 5)
				if !reflect.DeepEqual(gotK, wantK) || !reflect.DeepEqual(gotSnaps, wantSnaps) {
					t.Errorf("iter %d %s K=5: checkpointed run differs:\nblock:  %+v\nlegacy: %+v", i, what, gotK, wantK)
				}
			}
		}

		// Budget parity: expire the watchdog at every boundary shape —
		// first instruction, mid-run (usually mid-block), and exactly at
		// the golden step count (which must NOT hang: the legacy check is
		// increment-then-exceed, so steps == maxSteps completes).
		for _, ms := range []uint64{1, 2, want.Steps / 2, want.Steps - 1, want.Steps} {
			if ms == 0 {
				continue
			}
			opts := base
			opts.MaxSteps = ms
			hw := legacy.RunReference(opts)
			hg := block.Run(opts)
			if !reflect.DeepEqual(hg, hw) {
				t.Errorf("iter %d maxsteps=%d: RunResult differs:\nblock:  %+v\nlegacy: %+v",
					i, ms, hg, hw)
			}
			if ms == want.Steps && hw.Outcome != ir.OutcomeOK {
				t.Errorf("iter %d: budget equal to golden steps must complete, got %v", i, hw.Outcome)
			}
		}

		// Checkpoint parity, on the first programs: the block loop delivers
		// the reference's snapshots, at K=1 (one snapshot per site, so on
		// two programs only) and coarser, and runs resumed from the K=5
		// snapshots — faulted, budgeted or with the schedule still running
		// — are bit-identical to the reference's resumed runs.
		ks := []uint64{5, want.Sites/3 + 1}
		if i < 2 {
			ks = append(ks, 1)
		}
		if i >= 5 {
			ks = nil
		}
		for _, k := range ks {
			wantK, wantSnaps := runCkpts(legacy.RunReference, base, k)
			gotK, gotSnaps := runCkpts(block.Run, base, k)
			if !reflect.DeepEqual(gotK, wantK) || !reflect.DeepEqual(gotSnaps, wantSnaps) {
				t.Fatalf("iter %d K=%d: checkpointed run differs:\nblock:  %+v (%d snapshots)\nlegacy: %+v (%d snapshots)",
					i, k, gotK, len(gotSnaps), wantK, len(wantSnaps))
			}
			if uint64(len(wantSnaps)) != want.Sites/k {
				t.Fatalf("iter %d K=%d: %d snapshots for %d sites", i, k, len(wantSnaps), want.Sites)
			}
			if k != 5 {
				continue
			}
			for j, s := range wantSnaps {
				// A mid-block resume whose next site, faulted, lies in the
				// same block.
				var grid []ir.RunOpts
				if j%(len(wantSnaps)/8+1) == 0 && legacy.NextSiteInBlock(s) {
					grid = append(grid, ir.RunOpts{Resume: s, MaxSteps: maxSteps, Fault: &ir.Fault{Site: s.Sites(), Bit: 2}})
					sameBlock++
				}
				if j%(len(wantSnaps)/3+1) == 0 {
					grid = append(grid,
						ir.RunOpts{Resume: s, MaxSteps: maxSteps},
						ir.RunOpts{Resume: s, MaxSteps: maxSteps, Fault: &ir.Fault{Site: s.Sites() + 2, Bit: 7}},
						ir.RunOpts{Resume: s, MaxSteps: s.Steps() + (want.Steps-s.Steps())/2})
				}
				for _, opts := range grid {
					rw, rws := runCkpts(legacy.RunReference, opts, k)
					rg, rgs := runCkpts(block.Run, opts, k)
					if !reflect.DeepEqual(rg, rw) || !reflect.DeepEqual(rgs, rws) {
						t.Errorf("iter %d K=%d resume@%d fault=%v maxsteps=%d: resumed run differs:\nblock:  %+v\nlegacy: %+v",
							i, k, s.Sites(), opts.Fault, opts.MaxSteps, rg, rw)
					}
				}
			}
		}

		// Clone parity: a clone of a used template reproduces the golden
		// run from its own pristine state.
		if got := block.Clone().Run(base); !reflect.DeepEqual(got, want) {
			t.Errorf("iter %d: cloned interpreter RunResult differs:\nclone:  %+v\nlegacy: %+v", i, got, want)
		}
	}
	t.Logf("%d resumes with the next site in the same block", sameBlock)
	if sameBlock == 0 {
		t.Error("no resume had its next site in the same block")
	}
}
