package machine

import (
	"fmt"
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
