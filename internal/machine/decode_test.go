package machine

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"ferrum/internal/asm"
	"ferrum/internal/backend"
	"ferrum/internal/rodinia"
)

// TestUnknownCondCodeIsCrash: cond must refuse a condition code it does not
// know rather than silently treating the branch as not-taken — a corrupted
// or miscompiled CC would otherwise fall through undetected.
func TestUnknownCondCodeIsCrash(t *testing.T) {
	m, err := New(mustParse(t, "\t.globl\tmain\nmain:\n\thlt\n"), memSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.cond(asm.CC(99)); err == nil {
		t.Fatal("cond(99) = nil error, want a crash")
	} else if !strings.Contains(err.Error(), "unknown condition code 99") {
		t.Fatalf("cond(99) error = %v, want it to name the code", err)
	}
	// CCNone is equally meaningless as a branch condition.
	if _, err := m.cond(asm.CCNone); err == nil {
		t.Fatal("cond(CCNone) = nil error, want a crash")
	}
}

// TestUnknownCondCodeCrashOutcome: a decoded conditional branch whose CC is
// corrupted in place makes the run crash, not branch-not-taken.
func TestUnknownCondCodeCrashOutcome(t *testing.T) {
	src := `
	.globl	main
main:
	cmpq	$0, %rax
	je	.Ldone
.Ldone:
	hlt
`
	m, err := New(mustParse(t, src), memSize)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for i := range m.uops {
		if m.uops[i].code == uJcc {
			m.uops[i].cc = asm.CC(200)
			corrupted = true
		}
	}
	if !corrupted {
		t.Fatal("no uJcc uop decoded for the je instruction")
	}
	res := m.Run(RunOpts{})
	if res.Outcome != OutcomeCrash {
		t.Fatalf("outcome = %v, want OutcomeCrash", res.Outcome)
	}
	if !strings.Contains(res.CrashMsg, "unknown condition code 200") {
		t.Fatalf("crash msg = %q, want unknown condition code", res.CrashMsg)
	}
}

// TestUndefinedLabelRejectedAtLoad: a branch to a label nobody defines is a
// load-time error from New (via Validate) and — independently — from the
// decode stage itself, so no machine is ever built that could defer the
// failure to runtime.
func TestUndefinedLabelRejectedAtLoad(t *testing.T) {
	mk := func(op asm.Op) *asm.Program {
		return &asm.Program{
			Entry: "main",
			Funcs: []*asm.Func{{
				Name: "main",
				Insts: []asm.Inst{
					asm.NewInst(op, asm.LabelOp("nowhere")),
					asm.NewInst(asm.HALT),
				},
			}},
		}
	}
	for _, op := range []asm.Op{asm.JMP, asm.JE, asm.CALL} {
		if _, err := New(mk(op), memSize); err == nil {
			t.Errorf("New accepted %s to an undefined label", op)
		} else if !strings.Contains(err.Error(), `undefined label "nowhere"`) {
			t.Errorf("New(%s) error = %v, want it to name the label", op, err)
		}
		// Bypass Validate: the decoder's own target resolution must still
		// refuse to build the machine.
		if _, err := decodeProgram(mk(op)); err == nil {
			t.Errorf("decodeProgram accepted %s to an undefined label", op)
		} else if !strings.Contains(err.Error(), `undefined label "nowhere"`) {
			t.Errorf("decodeProgram(%s) error = %v, want it to name the label", op, err)
		}
	}
}

// TestSmallProgramDecodesFully: a small parsed program of the common
// shapes loads, and the block loop and the generic reference interpreter
// run it to the same Result.
func TestSmallProgramDecodesFully(t *testing.T) {
	src := `
	.globl	main
main:
	movq	$6, %rax
	movq	$7, %rcx
	imulq	%rcx, %rax
	cmpq	$42, %rax
	jne	.Lbad
	out	%rax
	hlt
.Lbad:
	movq	$0, %rax
	out	%rax
	hlt
`
	m, err := New(mustParse(t, src), memSize)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Run(RunOpts{})
	if got.Outcome != OutcomeOK || len(got.Output) != 1 || got.Output[0] != 42 {
		t.Fatalf("Run = %+v", got)
	}
	if want := m.runReference(RunOpts{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("Run = %+v, reference = %+v", got, want)
	}
}

// unsupportedShapes are instructions asm.Parse and asm.Validate accept but
// that have no meaning on the machine: mem→mem and immediate-destination
// forms, SIMD or immediate operands where a register or memory operand
// belongs, out-of-range or non-immediate lanes, a register jump target.
var unsupportedShapes = []string{
	"movq	(%rax), (%rbx)",
	"movq	%rax, $5",
	"addq	(%rax), (%rbx)",
	"cmpq	$1, $2",
	"testq	(%rax), %rbx",
	"sete	(%rax)",
	"popq	(%rax)",
	"out	$5",
	"out	(%rax)",
	"out	%xmm0",
	"pinsrq	$2, %rax, %xmm0",
	"pinsrq	$0, $7, %xmm0",
	"pinsrq	%rcx, %rax, %xmm0",
	"pinsrq	$1, %rax, %rbx",
	"jmp	%rax",
	"leaq	%rax, %rbx",
	"negq	$3",
	"movslq	$3, %rax",
	"pushq	%xmm0",
	"vpxor	%rax, %rbx, %rcx",
	"vptest	%rax, $1",
	"vinserti128	$1, %rax, %rbx, %rcx",
}

// shapeProgram wraps one instruction as the second instruction of main.
func shapeProgram(inst string) string {
	return "\t.globl\tmain\nmain:\n\tnop\n\t" + inst + "\n\thlt\n"
}

// TestUnsupportedShapesRejectedAtLoad: every unsupported operand shape is
// a load-time error from Decode and from New, naming the function, the
// instruction's index and its text, so no machine is built that could meet
// it at run time.
func TestUnsupportedShapesRejectedAtLoad(t *testing.T) {
	for _, shape := range unsupportedShapes {
		p := mustParse(t, shapeProgram(shape))
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: asm.Validate rejects it (%v); the table wants shapes only the machine refuses", shape, err)
		}
		text := p.Funcs[0].Insts[1].String()
		check := func(entry string, err error) {
			t.Helper()
			if err == nil {
				t.Errorf("%s accepted %q", entry, shape)
				return
			}
			for _, want := range []string{"main+1", text, "unsupported operand shape"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s(%q) error = %q, want it to contain %q", entry, shape, err, want)
				}
			}
		}
		_, err := Decode(p)
		check("Decode", err)
		_, err = New(p, memSize)
		check("New", err)
	}
	// A hand-built instruction whose provenance tag is out of range, which
	// the profile's dense per-tag arrays could not count.
	p := mustParse(t, shapeProgram("nop"))
	p.Funcs[0].Insts[1].Tag = asm.Tag(asm.NumTags)
	for entry, load := range map[string]func() error{
		"Decode": func() error { _, err := Decode(p); return err },
		"New":    func() error { _, err := New(p, memSize); return err },
	} {
		if err := load(); err == nil || !strings.Contains(err.Error(), "main+1") ||
			!strings.Contains(err.Error(), "tag") {
			t.Errorf("%s of an out-of-range tag: error = %v, want it to name main+1 and the tag", entry, err)
		}
	}
}

// fuzzMemSize and fuzzMaxSteps bound one FuzzDecodeEquiv execution.
const (
	fuzzMemSize  = 64 << 10
	fuzzMaxSteps = 10_000
)

// edgePrograms returns the asm programs embedded in edge_test.go: every
// raw string literal there that starts a program with a .globl directive.
func edgePrograms(f *testing.F) []string {
	src, err := os.ReadFile("edge_test.go")
	if err != nil {
		f.Fatal(err)
	}
	var out []string
	for _, m := range regexp.MustCompile("`(\\n\\t\\.globl[^`]*)`").FindAllStringSubmatch(string(src), -1) {
		out = append(out, m[1])
	}
	if len(out) == 0 {
		f.Fatal("no programs found in edge_test.go")
	}
	return out
}

// FuzzDecodeEquiv fuzzes the decode boundary: whatever asm text Decode
// accepts, the block loop over its uops and the generic reference
// interpreter return equal Results (outcome, crash message, output,
// cycles, instruction and site counts) and leave the same architectural
// state, on the golden run and with one fault drawn from the input.
// Seeded with the unsupported shapes (which must stay rejected), the
// edge-case programs and the eight raw Rodinia programs.
func FuzzDecodeEquiv(f *testing.F) {
	for _, shape := range unsupportedShapes {
		f.Add(shapeProgram(shape), uint64(0), uint8(0))
	}
	for _, src := range edgePrograms(f) {
		f.Add(src, uint64(1), uint8(7))
	}
	for _, b := range rodinia.All() {
		inst, err := b.Instantiate(1, 1)
		if err != nil {
			f.Fatal(err)
		}
		prog, err := backend.Compile(inst.Mod)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(prog.String(), uint64(100), uint8(3))
	}
	f.Fuzz(func(t *testing.T, src string, site uint64, bit uint8) {
		p, err := asm.Parse(src)
		if err != nil {
			return
		}
		d, err := Decode(p)
		if err != nil {
			return
		}
		fast, err := d.Instantiate(fuzzMemSize)
		if err != nil {
			t.Fatal(err)
		}
		defer fast.Release()
		ref, err := d.Instantiate(fuzzMemSize)
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Release()
		opts := RunOpts{MaxSteps: fuzzMaxSteps}
		compare := func(what string) Result {
			want := ref.runReference(opts)
			if got := fast.Run(opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Result differs:\nfast: %+v\nref:  %+v\n%s", what, got, want, src)
			}
			if fingerprint(fast) != fingerprint(ref) {
				t.Fatalf("%s: terminal machine state differs\n%s", what, src)
			}
			return want
		}
		golden := compare("golden")
		if golden.DynSites == 0 {
			return
		}
		opts.Fault = &Fault{Site: site % golden.DynSites, Bit: uint(bit)}
		compare(fmt.Sprintf("fault %+v", *opts.Fault))
	})
}
