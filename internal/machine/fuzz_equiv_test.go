package machine

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"reflect"
	"testing"

	"ferrum/internal/asm"
	"ferrum/internal/backend"
	"ferrum/internal/ferrumpass"
	"ferrum/internal/progen"
)

// archState is the machine's terminal architectural state: every general-
// purpose register, every vector register, every flag, and a hash of the
// full memory image. The dispatch-tier property below requires it to be
// identical between the block loop and the reference engine, not just the
// exported Result — an engine that computed the right output through the
// wrong register or memory state would pass a Result-only comparison.
type archState struct {
	gpr     [asm.NumReg]uint64
	x       [asm.NumXReg][8]uint64
	flags   [asm.NumFlag]bool
	memHash uint64
	pc      int
}

// memSeed keys the memory hash; one seed per process keeps fingerprints
// comparable across machines.
var memSeed = maphash.MakeSeed()

func fingerprint(m *Machine) archState {
	return archState{gpr: m.gpr, x: m.x, flags: m.flags, memHash: maphash.Bytes(memSeed, m.mem.B), pc: m.pc}
}

// blockSites counts the fault sites from index i to its block end.
func (p *program) blockSites(i int) int32 { return p.siteRank[p.blockEnd[i]] - p.siteRank[i] }

// recorders are the observer sets observed runs are compared under: every
// recorder at once, and the campaign golden run's sets — site statics
// alone and with function spans — which copy each segment's sites as one
// slice with no per-instruction walk.
var recorders = []struct {
	name string
	on   func(*RunOpts)
}{
	{"all", func(o *RunOpts) { o.RecordSiteStatics, o.RecordFnSpans, o.Profile, o.Trace = true, true, true, 8 }},
	{"statics", func(o *RunOpts) { o.RecordSiteStatics = true }},
	{"statics+spans", func(o *RunOpts) { o.RecordSiteStatics, o.RecordFnSpans = true, true }},
}

// TestEquivFuzzDispatchTiers is the property-based complement to the
// Rodinia-cell equivalence suite: randomly generated branch-dense programs
// (short basic blocks, nested diamonds and loops — the shapes that stress
// block-formation boundaries) must produce a bit-identical Result AND
// bit-identical terminal architectural state on the block-segment loop and
// on the per-instruction reference engine, for the golden run and for
// injected faults. The plain runs carry no observers; the observed runs,
// under each set of recorders, then pin the segment-granularity observers
// against the reference: site statics, function spans, profile, trace and
// checkpoint schedules at K=1
// and coarser, runs resumed from mid-block snapshots, budgets and crashes
// that end a run mid-block, StopAtSites on a checkpoint's own site count,
// event coincidences (a fault completing a checkpoint multiple, on its
// block's last site, where the budget runs out, just before StopAtSites,
// and right after a mid-block resume), and a Golden schedule that
// observers must make the run ignore.
func TestEquivFuzzDispatchTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	iters := 12
	if testing.Short() {
		iters = 4
	}
	const maxSteps = 5_000_000
	midResumes, crashes, sameBlockEvents := map[string]int{}, map[string]int{}, map[string]int{}
	for i := 0; i < iters; i++ {
		mod, err := progen.Generate(rng, progen.Options{
			Stmts: 30, Calls: i%2 == 0, BranchDensity: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		args := []uint64{8192, uint64(rng.Int63n(10000)), uint64(rng.Int63n(10000))}
		raw, err := backend.Compile(mod)
		if err != nil {
			t.Fatal(err)
		}
		prot, _, err := ferrumpass.Protect(raw, ferrumpass.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for tech, prog := range map[string]*asm.Program{"raw": raw, "ferrum": prot} {
			build := func() *Machine {
				m, err := New(prog, equivMemSize)
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < 8; s++ {
					if err := m.WriteWordImage(8192+8*uint64(s), uint64(s*5+3)); err != nil {
						t.Fatal(err)
					}
				}
				return m
			}
			fast, ref := build(), build()

			want := ref.runReference(RunOpts{Args: args, MaxSteps: maxSteps})
			if want.Outcome != OutcomeOK {
				t.Fatalf("iter %d/%s: golden outcome = %v (%s)\n%s",
					i, tech, want.Outcome, want.CrashMsg, mod)
			}
			wantState := fingerprint(ref)

			if got := fast.Run(RunOpts{Args: args, MaxSteps: maxSteps}); !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d/%s: golden Result differs:\nfast: %+v\nref: %+v",
					i, tech, got, want)
			}
			if st := fingerprint(fast); st != wantState {
				t.Fatalf("iter %d/%s: terminal machine state differs from the reference",
					i, tech)
			}

			if want.DynSites == 0 {
				continue
			}
			for _, site := range []uint64{0, want.DynSites / 2, want.DynSites - 1} {
				for _, bit := range []uint{0, 37} {
					opts := RunOpts{
						Args: args, MaxSteps: maxSteps,
						Fault: &Fault{Site: site, Bit: bit},
					}
					fw := ref.runReference(opts)
					fwState := fingerprint(ref)
					if fg := fast.Run(opts); !reflect.DeepEqual(fg, fw) {
						t.Errorf("iter %d/%s site=%d bit=%d: fault Result differs:\nfast: %+v\nref: %+v",
							i, tech, site, bit, fg, fw)
					}
					if st := fingerprint(fast); st != fwState {
						t.Errorf("iter %d/%s site=%d bit=%d: terminal machine state differs",
							i, tech, site, bit)
					}
				}
			}

			// Observed runs, on the first programs (with and without
			// calls): each set of recorders, checkpoints at K=1 (one
			// snapshot per site, so on one program only) and coarser,
			// compared with the reference run by run.
			if i >= 4 {
				continue
			}
			for _, rec := range recorders {
				observed := RunOpts{Args: args, MaxSteps: maxSteps}
				rec.on(&observed)
				ctx := fmt.Sprintf("iter %d/%s %s", i, tech, rec.name)
				check := func(what string, opts RunOpts, k uint64) Result {
					want, wantCks, _ := runCkpts(ref.runReference, opts, k)
					wantState := fingerprint(ref)
					got, cks, _ := runCkpts(fast.Run, opts, k)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s %s: Result differs:\ngot: %+v\nref: %+v", ctx, what, got, want)
					}
					if !reflect.DeepEqual(cks, wantCks) {
						t.Errorf("%s %s: checkpoints differ:\ngot: %v\nref: %v", ctx, what, cks, wantCks)
					}
					if fingerprint(fast) != wantState {
						t.Errorf("%s %s: terminal machine state differs", ctx, what)
					}
					return want
				}
				ks := []uint64{13, want.DynSites/3 + 1}
				if i == 0 {
					ks = append(ks, 1)
				}
				for _, k := range ks {
					check(fmt.Sprintf("K=%d", k), observed, k)
					// StopAtSites on a checkpoint's own site count: the
					// checkpoint is delivered first, then the boundary.
					o := observed
					o.StopAtSites = want.DynSites / 2 / k * k
					if o.StopAtSites > 0 {
						if r := check(fmt.Sprintf("K=%d stop=%d", k, o.StopAtSites), o, k); r.Outcome != OutcomeBoundary {
							t.Fatalf("%s K=%d: reference did not stop on its checkpoint: %v", ctx, k, r.Outcome)
						}
					}
				}
				// Resume from snapshots of a K=13 schedule, most of them taken
				// mid-block, with the schedule still running.
				_, _, snaps := runCkpts(ref.runReference, observed, 13)
				for j := 0; j < len(snaps); j += len(snaps)/3 + 1 {
					if pc := snaps[j].PC(); pc > 0 && fast.blockEnd[pc-1] == fast.blockEnd[pc] {
						midResumes[rec.name]++
					}
					o := observed
					o.Args, o.Resume = nil, snaps[j]
					check(fmt.Sprintf("resume@%d", snaps[j].Sites()), o, 13)
				}
				// Budgets expiring mid-block and faults that crash mid-block.
				for _, ms := range []uint64{1, want.DynInsts / 3, want.DynInsts/2 + 1, want.DynInsts - 1} {
					o := observed
					o.MaxSteps = ms
					check(fmt.Sprintf("maxsteps=%d", ms), o, 13)
				}
				// Event coincidences the segment loop must order exactly, each
				// run observed at K=13 and plain: a fault that completes a
				// checkpoint multiple, a fault on its block's last site, a fault
				// on the instruction where the budget runs out, StopAtSites just
				// after the fault site, and resumes from mid-block snapshots
				// whose next site, faulted, lies in the same block.
				statics := ref.runReference(RunOpts{Args: args, MaxSteps: maxSteps, RecordSiteStatics: true}).SiteStatics
				last := want.DynSites / 2
				for last < want.DynSites-1 && fast.blockSites(int(statics[last])) != 1 {
					last++
				}
				atLast := RunOpts{Args: args, MaxSteps: maxSteps, Fault: &Fault{Site: last, Bit: 3}}
				budgetOut := atLast
				budgetOut.MaxSteps = ref.runReference(atLast).FaultDyn
				stopAfter := atLast
				stopAfter.StopAtSites = last + 1
				cases := map[string]RunOpts{"fault on a block's last site": atLast,
					"budget out on the fault site": budgetOut, "stop just after the fault": stopAfter}
				if c := want.DynSites / 2 / 13; c > 0 {
					cases["fault on a checkpoint multiple"] = RunOpts{Args: args, MaxSteps: maxSteps,
						Fault: &Fault{Site: 13*c - 1, Bit: 9, Extra: []uint{40}}}
				}
				for j := 0; j < len(snaps); j += len(snaps)/8 + 1 {
					s := snaps[j]
					if pc := s.PC(); pc > 0 && fast.blockEnd[pc-1] == fast.blockEnd[pc] && fast.blockSites(pc) > 0 {
						cases[fmt.Sprintf("resume@%d with its next site faulted", s.Sites())] = RunOpts{
							Resume: s, MaxSteps: maxSteps, Fault: &Fault{Site: s.Sites(), Bit: 1}}
						sameBlockEvents[rec.name]++
					}
				}
				for what, o := range cases {
					plain := o
					rec.on(&o)
					if r := check(what, o, 13); o.Fault.Site == last && !r.Injected {
						t.Errorf("%s %s: reference did not inject: %+v", ctx, what, r)
					}
					w := ref.runReference(plain)
					wState := fingerprint(ref)
					if got := fast.Run(plain); !reflect.DeepEqual(got, w) || fingerprint(fast) != wState {
						t.Errorf("%s %s, unobserved: Result or state differs:\ngot: %+v\nref: %+v", ctx, what, got, w)
					}
				}
				g := recordGolden(fast, RunOpts{Args: args, MaxSteps: maxSteps}, 3)
				for _, site := range []uint64{0, want.DynSites / 3, want.DynSites / 2} {
					for _, bit := range []uint{5, 44} {
						o := observed
						o.Fault = &Fault{Site: site, Bit: bit}
						if check(fmt.Sprintf("fault=%d/%d", site, bit), o, 13).Outcome == OutcomeCrash {
							crashes[rec.name]++
						}
						// Observers make the run ignore a Golden schedule.
						o.Golden = g
						w := ref.runReference(o)
						before := fast.Converged()
						if got := fast.Run(o); !reflect.DeepEqual(got, w) || fast.Converged() != before {
							t.Errorf("%s fault=%d/%d: observed run with Golden differs or converged:\n%+v\nref: %+v",
								ctx, site, bit, got, w)
						}
					}
				}
			}
		}
	}
	for _, rec := range recorders {
		t.Logf("%s: %d mid-block resumes, %d crashes, %d same-block resume events",
			rec.name, midResumes[rec.name], crashes[rec.name], sameBlockEvents[rec.name])
		if midResumes[rec.name] == 0 || crashes[rec.name] == 0 || sameBlockEvents[rec.name] == 0 {
			t.Errorf("%s: observer cases went unexercised: %d mid-block resumes, %d crashes, %d same-block resume events",
				rec.name, midResumes[rec.name], crashes[rec.name], sameBlockEvents[rec.name])
		}
	}
}

// TestEquivFuzzGoldenConvergence: over randomly generated branch-dense
// programs, raw and FERRUM-protected, an injected run given the golden
// checkpoint schedule (RunOpts.Golden) returns a Result field-for-field
// equal to the reference run without one — from scratch and
// resumed from the nearest checkpoint, for single- and multi-bit faults,
// at K=1 and coarser spacings — and the schedule does end some runs early.
// Continuations resumed from a faulty StopAtSites boundary (compositional
// campaigns' fallback runs, which carry no Fault) converge exactly too.
func TestEquivFuzzGoldenConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	iters := 10
	if testing.Short() {
		iters = 4
	}
	const maxSteps = 5_000_000
	var runs, converged int
	for i := 0; i < iters; i++ {
		mod, err := progen.Generate(rng, progen.Options{
			Stmts: 30, Calls: i%2 == 0, BranchDensity: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		args := []uint64{8192, uint64(rng.Int63n(10000)), uint64(rng.Int63n(10000))}
		raw, err := backend.Compile(mod)
		if err != nil {
			t.Fatal(err)
		}
		prot, _, err := ferrumpass.Protect(raw, ferrumpass.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for tech, prog := range map[string]*asm.Program{"raw": raw, "ferrum": prot} {
			build := func() *Machine {
				m, err := New(prog, equivMemSize)
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < 8; s++ {
					if err := m.WriteWordImage(8192+8*uint64(s), uint64(s*5+3)); err != nil {
						t.Fatal(err)
					}
				}
				return m
			}
			fast, ref := build(), build()
			golden := fast.Run(RunOpts{Args: args, MaxSteps: maxSteps})
			if golden.Outcome != OutcomeOK || golden.DynSites < 4 {
				continue
			}
			for _, k := range []uint64{1, 7, golden.DynSites / 4} {
				g := recordGolden(fast, RunOpts{Args: args, MaxSteps: maxSteps}, k)
				for j := 0; j < 12; j++ {
					f := &Fault{Site: uint64(rng.Int63n(int64(golden.DynSites))), Bit: uint(rng.Intn(64))}
					if j%3 == 0 {
						f.Extra = []uint{uint(rng.Intn(64)), uint(rng.Intn(64))}
					}
					opts := RunOpts{Args: args, MaxSteps: maxSteps, Fault: f}
					want := ref.runReference(opts)
					var resume *Snapshot
					for _, s := range g.Checkpoints {
						if s.Sites() <= f.Site {
							resume = s
						}
					}
					for _, from := range []*Snapshot{nil, resume} {
						o := opts
						o.Golden, o.Resume = g, from
						before := fast.Converged()
						got := fast.Run(o)
						runs++
						if fast.Converged() > before {
							converged++
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("iter %d/%s K=%d fault=%+v resumed=%v: Result differs\ngolden: %+v\nref:    %+v",
								i, tech, k, *f, from != nil, got, want)
						}
					}
					stop := (f.Site/k + 1) * k
					if stop >= golden.DynSites {
						continue
					}
					o := opts
					o.StopAtSites = stop
					b := fast.Run(o)
					if b.Outcome != OutcomeBoundary {
						continue
					}
					cont := RunOpts{MaxSteps: maxSteps, Resume: b.Boundary}
					want = ref.runReference(cont)
					cont.Golden = g
					if got := fast.Run(cont); !reflect.DeepEqual(got, want) {
						t.Fatalf("iter %d/%s K=%d fault=%+v: boundary continuation differs\ngolden: %+v\nref:    %+v",
							i, tech, k, *f, got, want)
					}
				}
			}
		}
	}
	if converged == 0 {
		t.Fatalf("none of %d scheduled runs converged; the early exit went unexercised", runs)
	}
	t.Logf("%d of %d scheduled runs ended at a golden checkpoint", converged, runs)
}
