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

// The decode stage is pure representation: the block loop over decoded uops
// must be observationally identical to the generic per-instruction
// interpreter it replaced, which survives as the test oracle runReference.
// These tests run every Rodinia benchmark under every protection technique
// on both and require bit-identical Results; they are part of the
// equivalence gate (go test -run 'Equiv|Snapshot').

const equivMemSize = 1 << 20
const equivMaxSteps = 1 << 20

// ckpt is what one checkpoint pins: the snapshot's site and instruction
// counts and the digest of its whole state.
type ckpt struct{ sites, dyn, digest uint64 }

// runCkpts runs opts through run with a checkpoint every k sites and
// returns the Result with the schedule it kept.
func runCkpts(run func(RunOpts) Result, opts RunOpts, k uint64) (Result, []ckpt, []*Snapshot) {
	opts.Checkpoints = &Checkpoints{Every: k}
	res := run(opts)
	var cks []ckpt
	for _, s := range opts.Checkpoints.Snaps {
		cks = append(cks, ckpt{s.Sites(), s.DynInsts(), s.Digest()})
	}
	return res, cks, opts.Checkpoints.Snaps
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
// on the block loop over the decoded uops and on the per-instruction
// reference engine over the generic interpreter, asserting an identical
// Result (outcome, output, cycles, dynamic counts, per-site statics,
// function spans, profile and trace) for the golden run, an identical
// checkpoint schedule, and identical Results for a spread of fault
// injections.
func TestEquivDecodeVsSlowAsm(t *testing.T) {
	for _, bench := range rodinia.Names() {
		for tech, prog := range equivPrograms(t, bench) {
			fast, args := equivMachine(t, bench, prog)
			ref, _ := equivMachine(t, bench, prog)

			base := RunOpts{Args: args, MaxSteps: equivMaxSteps}
			// The traced variant is the debugging configuration, the
			// profiled one the proneness profile's; campaign golden runs
			// record site statics alone, and with function spans under
			// compose.
			traced, observed := base, base
			traced.RecordSiteStatics, traced.Profile, traced.Trace = true, true, 16
			observed.RecordSiteStatics, observed.Profile, observed.RecordFnSpans = true, true, true
			statics, spans := base, base
			statics.RecordSiteStatics = true
			spans.RecordSiteStatics, spans.RecordFnSpans = true, true
			want := ref.runReference(traced)
			if want.Outcome != OutcomeOK {
				t.Fatalf("%s/%s: golden outcome = %v (%s)", bench, tech, want.Outcome, want.CrashMsg)
			}
			if got := fast.Run(traced); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: traced golden Result differs:\nfast: %+v\nref: %+v",
					bench, tech, got, want)
			}
			k := want.DynSites/5 + 1
			for name, opts := range map[string]RunOpts{"observed": observed, "statics": statics, "statics+spans": spans} {
				wantObs := ref.runReference(opts)
				if got := fast.Run(opts); !reflect.DeepEqual(got, wantObs) {
					t.Fatalf("%s/%s: %s golden Result differs:\nfast: %+v\nref: %+v",
						bench, tech, name, got, wantObs)
				}
				wantCk, wantCks, _ := runCkpts(ref.runReference, opts, k)
				got, cks, _ := runCkpts(fast.Run, opts, k)
				if !reflect.DeepEqual(got, wantCk) || !reflect.DeepEqual(cks, wantCks) {
					t.Fatalf("%s/%s %s K=%d: checkpointed run differs:\nfast: %+v %v\nref: %+v %v",
						bench, tech, name, k, got, cks, wantCk, wantCks)
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
					if fg := fast.Run(opts); !reflect.DeepEqual(fg, fw) {
						t.Errorf("%s/%s site=%d bit=%d: fault Result differs:\nfast: %+v\nref: %+v",
							bench, tech, site, bit, fg, fw)
					}
				}
			}
		}
	}
}

// TestEquivSnapshotAcrossDecode checks that snapshots are engine-version
// independent: a snapshot captured mid-run by the reference engine restores
// into the block loop (and vice versa), and every resumed run reproduces
// the uninterrupted run's terminal Result.
func TestEquivSnapshotAcrossDecode(t *testing.T) {
	for _, bench := range []string{"bfs", "lud"} {
		prog := equivPrograms(t, bench)["ferrum"]
		fast, args := equivMachine(t, bench, prog)
		ref, _ := equivMachine(t, bench, prog)

		want := fast.Run(RunOpts{Args: args, MaxSteps: equivMaxSteps})
		if want.Outcome != OutcomeOK {
			t.Fatalf("%s: golden outcome = %v (%s)", bench, want.Outcome, want.CrashMsg)
		}

		pairs := []struct {
			name     string
			from, to func(RunOpts) Result
		}{
			{"ref->fast", ref.runReference, fast.Run},
			{"fast->ref", fast.Run, ref.runReference},
		}
		for _, p := range pairs {
			_, _, snaps := runCkpts(p.from, RunOpts{Args: args, MaxSteps: equivMaxSteps}, want.DynSites/3)
			if len(snaps) == 0 {
				t.Fatalf("%s %s: no snapshots captured", bench, p.name)
			}
			for i, s := range snaps {
				got := p.to(RunOpts{Resume: s, MaxSteps: equivMaxSteps})
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
