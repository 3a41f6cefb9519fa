package fi

import (
	"math"
	"slices"
	"sync"
	"testing"

	"ferrum/internal/machine"

	"ferrum/internal/backend"
	"ferrum/internal/ferrumpass"
	"ferrum/internal/ir"
)

const memSize = 1 << 20

const loopSrc = `
func @main(%n, %base) {
entry:
  %acc = alloca 1
  %i = alloca 1
  store 0, %acc
  store 0, %i
  br loop
loop:
  %iv = load %i
  %c = icmp slt %iv, %n
  br %c, body, done
body:
  %p = gep %base, %iv
  %v = load %p
  %a = load %acc
  %a2 = add %a, %v
  store %a2, %acc
  %i2 = add %iv, 1
  store %i2, %i
  br loop
done:
  %r = load %acc
  out %r
  ret %r
}
`

func loadArray(w MemWriter) error {
	for i, v := range []uint64{3, 1, 4, 1, 5, 9, 2, 6} {
		if err := w.WriteWordImage(8192+8*uint64(i), v); err != nil {
			return err
		}
	}
	return nil
}

func asmTarget(t *testing.T, protect bool) AsmTarget {
	t.Helper()
	mod, err := ir.Parse(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := backend.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	if protect {
		prog, _, err = ferrumpass.Protect(prog, ferrumpass.Config{})
		if err != nil {
			t.Fatal(err)
		}
	}
	return AsmTarget{Prog: prog, MemSize: memSize, Args: []uint64{8, 8192}, Setup: loadArray}
}

func TestAsmCampaignRawHasSDCs(t *testing.T) {
	res, err := RunAsmCampaign(asmTarget(t, false), Campaign{Samples: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 400 {
		t.Fatalf("samples = %d", res.Samples)
	}
	total := 0
	for _, n := range res.Counts {
		total += n
	}
	if total != 400 {
		t.Fatalf("counts sum to %d", total)
	}
	if res.Count(SDC) == 0 {
		t.Error("unprotected program showed no SDCs")
	}
	if res.Count(Detected) != 0 {
		t.Error("unprotected program reported detections")
	}
	if res.Golden[0] != 31 {
		t.Errorf("golden output = %v", res.Golden)
	}
}

func TestAsmCampaignFerrumFullCoverage(t *testing.T) {
	raw, err := RunAsmCampaign(asmTarget(t, false), Campaign{Samples: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := RunAsmCampaign(asmTarget(t, true), Campaign{Samples: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if prot.Count(SDC) != 0 {
		t.Errorf("FERRUM SDCs = %d, want 0", prot.Count(SDC))
	}
	if prot.Count(Detected) == 0 {
		t.Error("FERRUM never detected anything")
	}
	if cov := Coverage(raw, prot); cov != 1 {
		t.Errorf("coverage = %v, want 1", cov)
	}
	if oh := Overhead(raw.Cycles, prot.Cycles); oh <= 0 {
		t.Errorf("overhead = %v, want positive", oh)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	a, err := RunAsmCampaign(asmTarget(t, false), Campaign{Samples: 200, Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAsmCampaign(asmTarget(t, false), Campaign{Samples: 200, Seed: 42, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts != b.Counts {
		t.Errorf("worker count changed results: %v vs %v", a.Counts, b.Counts)
	}
	c, err := RunAsmCampaign(asmTarget(t, false), Campaign{Samples: 200, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts == c.Counts {
		t.Log("different seeds produced identical counts (possible but unlikely)")
	}
}

func TestIRCampaign(t *testing.T) {
	mod, err := ir.Parse(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunIRCampaign(IRTarget{Mod: mod, MemSize: memSize, Args: []uint64{8, 8192}, Setup: loadArray},
		Campaign{Samples: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count(SDC) == 0 {
		t.Error("unprotected IR showed no SDCs")
	}
	if res.DynSites == 0 {
		t.Error("no IR sites")
	}
}

// TestResultCyclesShape pins the documented Result.Cycles contract: only
// assembly-level campaigns carry the golden-run cycle count; the IR
// interpreter has no cycle model, so IR campaigns leave the field zero.
func TestResultCyclesShape(t *testing.T) {
	asmRes, err := RunAsmCampaign(asmTarget(t, false), Campaign{Samples: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if asmRes.Cycles <= 0 {
		t.Errorf("asm campaign Cycles = %v, want positive golden-run cycles", asmRes.Cycles)
	}
	mod, err := ir.Parse(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	irRes, err := RunIRCampaign(IRTarget{Mod: mod, MemSize: memSize, Args: []uint64{8, 8192}, Setup: loadArray},
		Campaign{Samples: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if irRes.Cycles != 0 {
		t.Errorf("IR campaign Cycles = %v, want 0 (no cycle model)", irRes.Cycles)
	}
}

// TestCampaignProgress: the Progress hook reports monotonically increasing
// cumulative counts ending exactly at Samples, in serial and parallel runs.
func TestCampaignProgress(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var seen []int
		_, err := RunAsmCampaign(asmTarget(t, false), Campaign{
			Samples: 100, Seed: 5, Workers: workers,
			Progress: func(done int) {
				mu.Lock()
				seen = append(seen, done)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) == 0 {
			t.Fatalf("workers=%d: progress never called", workers)
		}
		max := 0
		for _, n := range seen {
			if n > max {
				max = n
			}
		}
		if max != 100 {
			t.Errorf("workers=%d: max progress = %d, want 100", workers, max)
		}
		if workers == 1 {
			// Serial campaigns report in order; parallel callbacks may
			// deliver cumulative counts out of order.
			for i := 1; i < len(seen); i++ {
				if seen[i] <= seen[i-1] {
					t.Errorf("progress not increasing: %v", seen)
					break
				}
			}
		}
	}
}

func TestCoverageMetric(t *testing.T) {
	mk := func(sdc, samples int) Result {
		var r Result
		r.Samples = samples
		r.Counts[SDC] = sdc
		return r
	}
	if got := Coverage(mk(100, 1000), mk(0, 1000)); got != 1 {
		t.Errorf("full coverage = %v", got)
	}
	if got := Coverage(mk(100, 1000), mk(50, 1000)); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("half coverage = %v", got)
	}
	if got := Coverage(mk(100, 1000), mk(100, 1000)); got != 0 {
		t.Errorf("no coverage = %v", got)
	}
	if got := Coverage(mk(0, 1000), mk(0, 1000)); got != 1 {
		t.Errorf("zero-raw coverage = %v", got)
	}
	// Negative coverage clamps to zero.
	if got := Coverage(mk(10, 1000), mk(50, 1000)); got != 0 {
		t.Errorf("clamped coverage = %v", got)
	}
}

func TestWilsonCI(t *testing.T) {
	lo, hi := wilson(50, 100)
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("CI [%v, %v] should contain 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("CI too wide: [%v, %v]", lo, hi)
	}
	lo, hi = wilson(0, 100)
	if lo != 0 || hi <= 0 {
		t.Errorf("zero-success CI = [%v, %v]", lo, hi)
	}
	lo, hi = wilson(0, 0)
	if lo != 0 || hi != 0 {
		t.Errorf("empty CI = [%v, %v]", lo, hi)
	}
}

func TestOutcomeString(t *testing.T) {
	names := map[Outcome]string{Benign: "benign", SDC: "sdc", Detected: "detected", Crash: "crash", Hang: "hang"}
	for o, want := range names {
		if o.String() != want {
			t.Errorf("%d.String() = %q", o, o.String())
		}
	}
}

func TestCampaignErrors(t *testing.T) {
	// Golden run that crashes is rejected.
	mod, err := ir.Parse("func @main() {\nentry:\n  %v = load 0\n  ret\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := backend.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunAsmCampaign(AsmTarget{Prog: prog, MemSize: memSize}, Campaign{Samples: 10, Seed: 1})
	if err == nil {
		t.Error("crashing golden run accepted")
	}
}

func machineNew(tgt AsmTarget) (*machine.Machine, error) {
	m, err := machine.New(tgt.Prog, tgt.MemSize)
	if err != nil {
		return nil, err
	}
	if tgt.Setup != nil {
		if err := tgt.Setup(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func machineRunOpts(tgt AsmTarget, f *machine.Fault) machine.RunOpts {
	return machine.RunOpts{Args: tgt.Args, Fault: f}
}

const machineOutcomeOK = machine.OutcomeOK

func TestFindExample(t *testing.T) {
	tgt := asmTarget(t, false)
	c := Campaign{Samples: 300, Seed: 2}
	f, ok, err := FindExample(tgt, c, SDC)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no SDC example found in a raw program")
	}
	// Replaying the returned fault reproduces the outcome.
	m, err := machineNew(tgt)
	if err != nil {
		t.Fatal(err)
	}
	golden := m.Run(machineRunOpts(tgt, nil))
	res := m.Run(machineRunOpts(tgt, &f))
	if res.Outcome != machineOutcomeOK {
		t.Fatalf("replay outcome %v, want ok-with-wrong-output", res.Outcome)
	}
	if slices.Equal(res.Output, golden.Output) {
		t.Error("replayed fault did not corrupt output")
	}
	// Protected program has no SDC example.
	ptgt := asmTarget(t, true)
	_, ok, err = FindExample(ptgt, c, SDC)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("found an SDC example in a FERRUM-protected program")
	}
}
