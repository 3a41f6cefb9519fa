package fi

import (
	"strings"
	"testing"

	"ferrum/internal/asm"
	"ferrum/internal/backend"
	"ferrum/internal/ferrumpass"
	"ferrum/internal/ir"
	"ferrum/internal/machine"
)

// TestMultiBitFaultsStillDetected: FERRUM duplicates whole values, so any
// number of bit flips confined to one destination register still produces
// a duplicate/original mismatch — multi-bit upsets within a word are
// detected exactly like single flips (the future-work scenario of §II-A).
func TestMultiBitFaultsStillDetected(t *testing.T) {
	mod, err := ir.Parse(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := backend.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	prot, _, err := ferrumpass.Protect(prog, ferrumpass.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bits := range []int{2, 3, 4} {
		res, err := RunAsmCampaign(AsmTarget{
			Prog: prot, MemSize: memSize, Args: []uint64{8, 8192}, Setup: loadArray,
		}, Campaign{Samples: 200, Seed: 11, BitsPerFault: bits})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count(SDC) != 0 {
			t.Errorf("bits=%d: SDCs = %d, want 0", bits, res.Count(SDC))
		}
		if res.Count(Detected) == 0 {
			t.Errorf("bits=%d: nothing detected", bits)
		}
	}
}

// TestMultiBitRaisesRawSeverity: in the unprotected program, multi-bit
// faults corrupt more aggressively (never less) than single-bit faults.
func TestMultiBitRaisesRawSeverity(t *testing.T) {
	mod, err := ir.Parse(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := backend.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	tgt := AsmTarget{Prog: prog, MemSize: memSize, Args: []uint64{8, 8192}, Setup: loadArray}
	single, err := RunAsmCampaign(tgt, Campaign{Samples: 400, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	double, err := RunAsmCampaign(tgt, Campaign{Samples: 400, Seed: 21, BitsPerFault: 2})
	if err != nil {
		t.Fatal(err)
	}
	// More flipped bits cannot increase the benign fraction much; allow
	// slack for sampling noise but catch inverted behaviour.
	if double.Rate(Benign) > single.Rate(Benign)+0.1 {
		t.Errorf("double-bit benign rate %.2f implausibly above single-bit %.2f",
			double.Rate(Benign), single.Rate(Benign))
	}
}

// TestMultiBitDistinctBits: every planned bit — primary and extras — is
// pairwise distinct. Extras that merely avoided the primary could still
// collide with each other, XOR-cancel, and silently degrade a planned
// 3-bit upset to a 1-bit fault (the regression this guards against).
func TestMultiBitDistinctBits(t *testing.T) {
	for _, bits := range []int{2, 3, 8, 32} {
		plans := mustPlans(t, Campaign{Samples: 500, Seed: 3, BitsPerFault: bits}, 100, nil)
		for _, p := range plans {
			if len(p.extra) != bits-1 {
				t.Fatalf("bits=%d: extra bits = %d, want %d", bits, len(p.extra), bits-1)
			}
			seen := map[uint]bool{p.bit: true}
			for _, b := range p.extra {
				if seen[b] {
					t.Fatalf("bits=%d: bit %d planned twice in %+v", bits, b, p)
				}
				seen[b] = true
			}
		}
	}
}

// TestMultiBitCappedAt64: more than 64 requested bits cannot be distinct in
// a 64-bit destination; the planner caps instead of spinning forever.
func TestMultiBitCappedAt64(t *testing.T) {
	plans := mustPlans(t, Campaign{Samples: 10, Seed: 4, BitsPerFault: 100}, 50, nil)
	for _, p := range plans {
		if len(p.extra) != 63 {
			t.Fatalf("extra bits = %d, want 63", len(p.extra))
		}
	}
}

// TestMultiBitMachineApply checks the machine flips all planned bits.
func TestMultiBitMachineApply(t *testing.T) {
	src := `
	.globl	main
main:
	movq	$0, %rax
	out	%rax
	hlt
`
	prog, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(prog, memSize)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(machine.RunOpts{Fault: &machine.Fault{Site: 0, Bit: 0, Extra: []uint{2, 5}}})
	if !res.Injected || res.Output[0] != 0b100101 {
		t.Fatalf("output = %#b, want 0b100101", res.Output[0])
	}
}

func TestProfileProneness(t *testing.T) {
	mod, err := ir.Parse(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := backend.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	tgt := AsmTarget{Prog: prog, MemSize: memSize, Args: []uint64{8, 8192}, Setup: loadArray}
	stats, err := ProfileProneness(tgt, Campaign{Samples: 400, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no stats")
	}
	totalFaults := 0
	for i, s := range stats {
		totalFaults += s.Faults
		if s.SDCs > s.Faults || s.Crashes > s.Faults {
			t.Errorf("implausible stats %+v", s)
		}
		if i > 0 && stats[i-1].Proneness() < s.Proneness() {
			t.Error("stats not sorted by proneness")
		}
		if s.Loc.Fn == "" {
			t.Error("missing function name")
		}
	}
	if totalFaults != 400 {
		t.Errorf("faults sum to %d, want 400", totalFaults)
	}
	// Deterministic.
	stats2, err := ProfileProneness(tgt, Campaign{Samples: 400, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats2) != len(stats) || stats2[0] != stats[0] {
		t.Error("profiling not deterministic")
	}
}

// TestProfilePronenessRejectsCompose: a stratified composed draw cannot be
// attributed per site, so a composed profile is refused rather than
// silently run monolithic.
func TestProfilePronenessRejectsCompose(t *testing.T) {
	tgt := asmTarget(t, false)
	_, err := ProfileProneness(tgt, Campaign{Samples: 50, Seed: 13, Compose: ComposeOn})
	if err == nil || !strings.Contains(err.Error(), "not supported for proneness profiles") {
		t.Fatalf("composed profile: err = %v, want a refusal", err)
	}
}
