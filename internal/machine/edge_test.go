package machine

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"ferrum/internal/asm"
)

func TestZMMInstructionSemantics(t *testing.T) {
	// Build an 8-lane comparison: equal halves -> ZF set, no detection.
	src := `
	.globl	main
main:
	movq	$10, %rax
	movq	%rax, %xmm0
	movq	%rax, %xmm1
	pinsrq	$1, %rax, %xmm0
	pinsrq	$1, %rax, %xmm1
	vinserti128	$1, %xmm0, %ymm2, %ymm2
	vinserti128	$1, %xmm1, %ymm3, %ymm3
	vinserti64x4	$1, %ymm2, %zmm4, %zmm4
	vinserti64x4	$1, %ymm3, %zmm5, %zmm5
	vpxor	%zmm5, %zmm4, %zmm4
	vptest	%zmm4, %zmm4
	jne	exit_function
	movq	$1, %rcx
	out	%rcx
	hlt

	.globl	__rt
__rt:
exit_function:
	detect
`
	res := run(t, src, RunOpts{})
	if res.Outcome != OutcomeOK || res.Output[0] != 1 {
		t.Fatalf("res = %+v (%s)", res, res.CrashMsg)
	}
}

func TestZMMMismatchDetected(t *testing.T) {
	// Differ only in lane 7 (upper half of the zmm view): a ymm-wide
	// vptest would miss it, the zmm-wide one must catch it.
	src := `
	.globl	main
main:
	movq	$7, %rax
	movq	%rax, %xmm2
	vinserti64x4	$1, %ymm2, %zmm4, %zmm4
	vptest	%zmm4, %zmm4
	jne	exit_function
	hlt

	.globl	__rt
__rt:
exit_function:
	detect
`
	res := run(t, src, RunOpts{})
	if res.Outcome != OutcomeDetected {
		t.Fatalf("outcome = %v, want detected (nonzero upper lanes)", res.Outcome)
	}
	// And the same program with a ymm-wide test does not see lanes 4-7.
	src2 := `
	.globl	main
main:
	movq	$7, %rax
	movq	%rax, %xmm2
	vinserti64x4	$1, %ymm2, %zmm4, %zmm4
	vptest	%ymm4, %ymm4
	jne	exit_function
	hlt

	.globl	__rt
__rt:
exit_function:
	detect
`
	res = run(t, src2, RunOpts{})
	if res.Outcome != OutcomeOK {
		t.Fatalf("ymm view saw upper lanes: %v", res.Outcome)
	}
}

func TestXorByteSemantics(t *testing.T) {
	src := `
	.globl	main
main:
	movq	$511, %rax
	movq	$510, %rcx
	xorb	%al, %cl
	movzbq	%cl, %rdx
	out	%rdx
	out	%rcx
	hlt
`
	res := run(t, src, RunOpts{})
	if res.Outcome != OutcomeOK {
		t.Fatalf("%v (%s)", res.Outcome, res.CrashMsg)
	}
	// 0xFF ^ 0xFE = 1; upper bits of rcx preserved (0x100).
	if res.Output[0] != 1 || res.Output[1] != 0x101 {
		t.Fatalf("output = %v", res.Output)
	}
}

func TestNegAndTest(t *testing.T) {
	src := `
	.globl	main
main:
	movq	$5, %rax
	negq	%rax
	out	%rax
	testq	%rax, %rax
	jl	.Lneg
	movq	$0, %rcx
	out	%rcx
	hlt
.Lneg:
	movq	$1, %rcx
	out	%rcx
	hlt
`
	res := run(t, src, RunOpts{})
	if int64(res.Output[0]) != -5 || res.Output[1] != 1 {
		t.Fatalf("output = %v", res.Output)
	}
}

func TestMovXmmToMemory(t *testing.T) {
	src := `
	.globl	main
main:
	movq	$77, %rax
	movq	%rax, %xmm3
	movq	$8192, %rcx
	movq	%xmm3, (%rcx)
	movq	(%rcx), %rdx
	out	%rdx
	movq	%xmm3, %rsi
	out	%rsi
	hlt
`
	res := run(t, src, RunOpts{})
	if res.Outcome != OutcomeOK || res.Output[0] != 77 || res.Output[1] != 77 {
		t.Fatalf("res = %+v (%s)", res, res.CrashMsg)
	}
}

func TestDivideOverflowCrash(t *testing.T) {
	// rdx not the sign extension of rax: hardware #DE.
	src := `
	.globl	main
main:
	movq	$1, %rax
	movq	$5, %rdx
	movq	$3, %rcx
	idivq	%rcx
	hlt
`
	res := run(t, src, RunOpts{})
	if res.Outcome != OutcomeCrash {
		t.Fatalf("outcome = %v, want crash", res.Outcome)
	}
}

func TestRetIntoNowhere(t *testing.T) {
	src := `
	.globl	main
main:
	retq
`
	res := run(t, src, RunOpts{})
	if res.Outcome != OutcomeCrash {
		t.Fatalf("outcome = %v, want crash (empty stack)", res.Outcome)
	}
}

func TestReadWordAndMemSize(t *testing.T) {
	m, err := New(mustParse(t, faultTestSrc), memSize)
	if err != nil {
		t.Fatal(err)
	}
	if m.MemSize() != memSize {
		t.Errorf("MemSize = %d", m.MemSize())
	}
	if err := m.WriteWordImage(8192, 99); err != nil {
		t.Fatal(err)
	}
	m.Run(RunOpts{})
	v, err := m.ReadWord(8192)
	if err != nil || v != 99 {
		t.Errorf("ReadWord = %d, %v", v, err)
	}
	if _, err := m.ReadWord(0); err == nil {
		t.Error("guard-page read accepted")
	}
	if err := m.WriteWordImage(10, 1); err == nil {
		t.Error("guard-page image write accepted")
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	p := mustParse(t, faultTestSrc)
	if _, err := New(p, 100); err == nil {
		t.Error("tiny memory accepted")
	}
	bad := &asm.Program{Funcs: p.Funcs} // no entry
	if _, err := New(bad, memSize); err == nil {
		t.Error("program without entry accepted")
	}
}

// TestShiftPropertyVsGo compares shift semantics (including counts >= 64,
// which x86 masks) against Go equivalents with explicit masking.
func TestShiftPropertyVsGo(t *testing.T) {
	ops := map[string]func(a uint64, s uint) uint64{
		"shlq": func(a uint64, s uint) uint64 { return a << (s & 63) },
		"shrq": func(a uint64, s uint) uint64 { return a >> (s & 63) },
		"sarq": func(a uint64, s uint) uint64 { return uint64(int64(a) >> (s & 63)) },
	}
	for name, eval := range ops {
		name, eval := name, eval
		f := func(a uint64, s uint8) bool {
			src := fmt.Sprintf(`
	.globl	main
main:
	movq	$%d, %%rax
	movq	$%d, %%rcx
	%s	%%rcx, %%rax
	out	%%rax
	hlt
`, int64(a), int64(s), name)
			p, err := asm.Parse(src)
			if err != nil {
				return false
			}
			m, err := New(p, memSize)
			if err != nil {
				return false
			}
			res := m.Run(RunOpts{})
			return res.Outcome == OutcomeOK && res.Output[0] == eval(a, uint(s))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{
		OutcomeOK: "ok", OutcomeDetected: "detected",
		OutcomeCrash: "crash", OutcomeHang: "hang",
	} {
		if o.String() != want {
			t.Errorf("%d.String() = %q", o, o.String())
		}
	}
}

func TestTraceRing(t *testing.T) {
	src := `
	.globl	main
main:
	movq	$1, %rax
	addq	$2, %rax
	out	%rax
	hlt
`
	m, err := New(mustParse(t, src), memSize)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(RunOpts{Trace: 2})
	if len(res.Trace) != 2 {
		t.Fatalf("trace = %v", res.Trace)
	}
	// Last two instructions are out and hlt, oldest first.
	if res.Trace[0] != "program\tout\t%rax" || res.Trace[1] != "program\thlt" {
		t.Fatalf("trace = %q", res.Trace)
	}
	// Bigger ring than run: partial fill, oldest first.
	res = m.Run(RunOpts{Trace: 100})
	if len(res.Trace) != 4 || res.Trace[0] != "program\tmovq\t$1, %rax" {
		t.Fatalf("partial trace = %q", res.Trace)
	}
	// Disabled by default.
	if res2 := m.Run(RunOpts{}); res2.Trace != nil {
		t.Error("trace recorded without being requested")
	}
}

// TestPartlyChargedSegments pins the runs that end inside a segment the
// block loop charged whole at entry: a crash on a non-last instruction of
// a block with sites after it, a step budget that runs out mid-block, a
// ret to an invalid address and a detect reached by falling through from
// a block whose span was never flushed. Each run must match the
// per-instruction reference engine on the whole Result and the terminal
// machine state, and both must read the hand-counted figures: a crashed
// instruction counts as executed and is charged its cost, but retires no
// site.
func TestPartlyChargedSegments(t *testing.T) {
	cases := []struct {
		name, src   string
		opts        RunOpts
		outcome     Outcome
		dyn, sites  uint64
		cycles      float64
		faultCycles float64
		pc          int
		crashMsg    string
	}{
		{
			name: "guard-page load", src: `
	.globl	main
main:
	movq	$5, %rbx
	movq	%rbx, %xmm1
	movq	$0, %rax
	movq	(%rax), %rcx
	addq	$1, %rbx
	movq	%rbx, %xmm2
	out	%rbx
	hlt
`,
			opts:    RunOpts{Fault: &Fault{Site: 1, Bit: 0}},
			outcome: OutcomeCrash, dyn: 4, sites: 3, cycles: 3, faultCycles: 0.5, pc: 3,
			crashMsg: "load of 8 bytes at 0x0 out of range",
		},
		{
			name: "idivq by zero", src: `
	.globl	main
main:
	movq	$7, %rax
	movq	%rax, %xmm0
	movq	$0, %rcx
	idivq	%rcx
	addq	%rax, %rbx
	movq	%rbx, %xmm1
	out	%rax
	hlt
`,
			opts:    RunOpts{Fault: &Fault{Site: 1, Bit: 3}},
			outcome: OutcomeCrash, dyn: 4, sites: 3, cycles: 25, faultCycles: 0.5, pc: 3,
			crashMsg: "divide error",
		},
		{
			name: "budget mid-block", src: `
	.globl	main
main:
	movq	$1, %rax
	addq	$2, %rax
	movq	%rax, %xmm0
	addq	$3, %rax
	addq	$4, %rax
	out	%rax
	hlt
`,
			opts:    RunOpts{MaxSteps: 4, Fault: &Fault{Site: 1, Bit: 0}},
			outcome: OutcomeHang, dyn: 4, sites: 4, cycles: 1.5, faultCycles: 1, pc: 4,
		},
		{
			name: "budget mid-loop-body", src: `
	.globl	main
main:
	movq	$0, %rax
loop:
	addq	$1, %rax
	movq	%rax, %xmm0
	cmpq	$1000, %rax
	jne	loop
	hlt
`,
			// Two whole iterations and the first two instructions of the
			// third; each taken jne carries its 2.5-cycle redirect into the
			// next span.
			opts:    RunOpts{MaxSteps: 11, Fault: &Fault{Site: 2, Bit: 5}},
			outcome: OutcomeHang, dyn: 11, sites: 9, cycles: 9, faultCycles: 1, pc: 3,
		},
		{
			name: "ret to invalid address", src: `
	.globl	main
main:
	movq	$100000, %rax
	movq	%rax, %xmm0
	pushq	%rax
	movq	$3, %rbx
	retq
`,
			opts:    RunOpts{Fault: &Fault{Site: 1, Bit: 0}},
			outcome: OutcomeCrash, dyn: 5, sites: 3, cycles: 7.5, faultCycles: 0.5, pc: 4,
			crashMsg: "ret to invalid address 100000",
		},
		{
			name: "detect by fall-through", src: `
	.globl	main
main:
	movq	$1, %rax
	cmpq	$1, %rax
	jne	exit_function
	movq	%rax, %xmm0
	movq	%rax, %xmm1
	addq	$1, %rax

	.globl	__detect
exit_function:
	detect
`,
			// jne is not taken: its flush closes the first span at 1.5
			// cycles, and detect closes the second, which the block break
			// at exit_function left open, at max(0.5, 1.0).
			opts:    RunOpts{Fault: &Fault{Site: 2, Bit: 0}},
			outcome: OutcomeDetected, dyn: 7, sites: 5, cycles: 2.5, faultCycles: 2, pc: 6,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, err := Decode(mustParse(t, c.src))
			if err != nil {
				t.Fatal(err)
			}
			fast, err := d.Instantiate(memSize)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := d.Instantiate(memSize)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []RunOpts{c.opts, {MaxSteps: c.opts.MaxSteps}} {
				want := ref.runReference(opts)
				if got := fast.Run(opts); !reflect.DeepEqual(got, want) {
					t.Fatalf("fault %v: Result differs:\nfast: %+v\nref:  %+v", opts.Fault, got, want)
				}
				if fingerprint(fast) != fingerprint(ref) {
					t.Fatalf("fault %v: terminal machine state differs:\nfast: %+v\nref:  %+v",
						opts.Fault, fingerprint(fast), fingerprint(ref))
				}
			}
			res := fast.Run(c.opts)
			if res.Outcome != c.outcome || res.DynInsts != c.dyn || res.DynSites != c.sites ||
				res.Cycles != c.cycles || res.FaultCycles != c.faultCycles || !res.Injected ||
				fast.pc != c.pc || res.CrashMsg != c.crashMsg {
				t.Errorf("got %v dyn=%d sites=%d cycles=%v faultCycles=%v injected=%v pc=%d crash=%q\n"+
					"want %v dyn=%d sites=%d cycles=%v faultCycles=%v injected=true pc=%d crash=%q",
					res.Outcome, res.DynInsts, res.DynSites, res.Cycles, res.FaultCycles, res.Injected, fast.pc, res.CrashMsg,
					c.outcome, c.dyn, c.sites, c.cycles, c.faultCycles, c.pc, c.crashMsg)
			}
		})
	}
}
