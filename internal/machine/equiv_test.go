package machine

import (
	"reflect"
	"testing"

	"ferrum/internal/asm"
	"ferrum/internal/backend"
	"ferrum/internal/eddi"
	"ferrum/internal/ferrumpass"
	"ferrum/internal/rodinia"
)

// The decode stage is pure representation: the decoded uop dispatch must be
// observationally identical to the generic slow-path interpreter it
// accelerates. These tests run every Rodinia benchmark under every
// protection technique on both engines and require bit-identical Results;
// they are part of the PR equivalence gate (go test -run 'Equiv|Snapshot').

const equivMemSize = 1 << 20
const equivMaxSteps = 1 << 20

// forceSlow reroutes every decoded uop through the generic interpreter,
// recovering the pre-decode execution engine. Cost and destination kind
// stay as decoded, so only the dispatch path changes. Run through
// runReference, this machine is the per-instruction reference the block
// loop is measured against; run through Run, it is the block loop over the
// generic interpreter.
func forceSlow(m *Machine) {
	for i := range m.uops {
		m.uops[i].code = uSlow
	}
}

// ckpt is what one OnCheckpoint delivery pins: the snapshot's site and
// instruction counts and the digest of its whole state.
type ckpt struct{ sites, dyn, digest uint64 }

// runCkpts runs opts through run with a checkpoint every k sites and
// returns the Result with the schedule it delivered.
func runCkpts(run func(RunOpts) Result, opts RunOpts, k uint64) (Result, []ckpt, []*Snapshot) {
	var cks []ckpt
	var snaps []*Snapshot
	opts.CheckpointEvery = k
	opts.OnCheckpoint = func(s *Snapshot) {
		cks = append(cks, ckpt{s.Sites(), s.DynInsts(), s.Digest()})
		snaps = append(snaps, s)
	}
	return run(opts), cks, snaps
}

func equivPrograms(t *testing.T, bench string) map[string]*asm.Program {
	t.Helper()
	b, ok := rodinia.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	inst, err := b.Instantiate(1, 99)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := backend.Compile(inst.Mod)
	if err != nil {
		t.Fatal(err)
	}
	eddiProg, _, err := eddi.Protect(raw)
	if err != nil {
		t.Fatal(err)
	}
	ferrumProg, _, err := ferrumpass.Protect(raw, ferrumpass.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*asm.Program{"raw": raw, "eddi": eddiProg, "ferrum": ferrumProg}
}

func equivMachine(t *testing.T, bench string, prog *asm.Program) (*Machine, []uint64) {
	t.Helper()
	b, _ := rodinia.ByName(bench)
	inst, err := b.Instantiate(1, 99)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(prog, equivMemSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Setup(m); err != nil {
		t.Fatal(err)
	}
	return m, inst.Args
}

// TestEquivDecodeVsSlowAsm runs every Rodinia cell × {raw, eddi, ferrum}
// on both block-loop tiers — block dispatch over the decoded uops and the
// block loop over the forced slow path — and on the per-instruction
// reference engine, asserting an identical Result (outcome, output, cycles,
// dynamic counts, per-site statics, function spans, profile and trace) for
// the golden run, an identical checkpoint schedule, and identical Results
// for a spread of fault injections. It also pins decode coverage: compiled
// Rodinia programs must decode with no residual slow-path uops.
func TestEquivDecodeVsSlowAsm(t *testing.T) {
	for _, bench := range rodinia.Names() {
		for tech, prog := range equivPrograms(t, bench) {
			fast, args := equivMachine(t, bench, prog)
			slow, _ := equivMachine(t, bench, prog)
			ref, _ := equivMachine(t, bench, prog)
			forceSlow(slow)
			forceSlow(ref)

			for i := range fast.uops {
				if fast.uops[i].code == uSlow {
					t.Errorf("%s/%s: instruction %d (%s) left on the slow path",
						bench, tech, i, fast.insts[i].in.String())
				}
			}

			base := RunOpts{Args: args, MaxSteps: equivMaxSteps}
			// The traced variant is the debugging configuration; the
			// untraced one is what campaign golden and recording runs use.
			traced, observed := base, base
			traced.RecordSiteStatics, traced.Profile, traced.Trace = true, true, 16
			observed.RecordSiteStatics, observed.Profile, observed.RecordFnSpans = true, true, true
			want := ref.runReference(traced)
			if want.Outcome != OutcomeOK {
				t.Fatalf("%s/%s: golden outcome = %v (%s)", bench, tech, want.Outcome, want.CrashMsg)
			}
			wantObs := ref.runReference(observed)
			k := want.DynSites/5 + 1
			wantCk, wantCks, _ := runCkpts(ref.runReference, observed, k)

			tiers := map[string]*Machine{"fast": fast, "slow": slow}
			for name, m := range tiers {
				if got := m.Run(traced); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s: traced golden Result differs:\n%s: %+v\nref: %+v",
						bench, tech, name, got, want)
				}
				if got := m.Run(observed); !reflect.DeepEqual(got, wantObs) {
					t.Fatalf("%s/%s: observed golden Result differs:\n%s: %+v\nref: %+v",
						bench, tech, name, got, wantObs)
				}
				got, cks, _ := runCkpts(m.Run, observed, k)
				if !reflect.DeepEqual(got, wantCk) || !reflect.DeepEqual(cks, wantCks) {
					t.Fatalf("%s/%s K=%d: checkpointed run differs:\n%s: %+v %v\nref: %+v %v",
						bench, tech, k, name, got, cks, wantCk, wantCks)
				}
			}

			sites := want.DynSites
			for _, site := range []uint64{0, sites / 3, sites / 2, sites - 1} {
				for _, bit := range []uint{0, 13, 63} {
					opts := RunOpts{
						Args: args, MaxSteps: equivMaxSteps,
						Fault: &Fault{Site: site, Bit: bit},
					}
					fw := ref.runReference(opts)
					for name, m := range tiers {
						fg := m.Run(opts)
						if !reflect.DeepEqual(fg, fw) {
							t.Errorf("%s/%s site=%d bit=%d: fault Result differs:\n%s: %+v\nref: %+v",
								bench, tech, site, bit, name, fg, fw)
						}
					}
				}
			}
		}
	}
}

// TestEquivSnapshotAcrossDecode checks that snapshots are engine-version
// independent: a snapshot captured mid-run by the slow-path engine restores
// into a decoded machine (and vice versa), and every resumed run reproduces
// the uninterrupted run's terminal Result.
func TestEquivSnapshotAcrossDecode(t *testing.T) {
	for _, bench := range []string{"bfs", "lud"} {
		prog := equivPrograms(t, bench)["ferrum"]
		fast, args := equivMachine(t, bench, prog)
		slow, _ := equivMachine(t, bench, prog)
		forceSlow(slow)

		want := fast.Run(RunOpts{Args: args, MaxSteps: equivMaxSteps})
		if want.Outcome != OutcomeOK {
			t.Fatalf("%s: golden outcome = %v (%s)", bench, want.Outcome, want.CrashMsg)
		}

		pairs := []struct {
			name     string
			from, to *Machine
		}{
			{"slow->fast", slow, fast},
			{"fast->slow", fast, slow},
		}
		for _, p := range pairs {
			var snaps []*Snapshot
			p.from.Run(RunOpts{
				Args: args, MaxSteps: equivMaxSteps,
				CheckpointEvery: want.DynSites / 3,
				OnCheckpoint:    func(s *Snapshot) { snaps = append(snaps, s) },
			})
			if len(snaps) == 0 {
				t.Fatalf("%s %s: no snapshots captured", bench, p.name)
			}
			for i, s := range snaps {
				got := p.to.Run(RunOpts{Resume: s, MaxSteps: equivMaxSteps})
				if got.Outcome != want.Outcome || !reflect.DeepEqual(got.Output, want.Output) ||
					got.Cycles != want.Cycles || got.DynInsts != want.DynInsts ||
					got.DynSites != want.DynSites {
					t.Errorf("%s %s snapshot %d: resumed Result differs: %+v != %+v",
						bench, p.name, i, got, want)
				}
			}
		}
	}
}
