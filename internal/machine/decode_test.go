package machine

import (
	"strings"
	"testing"

	"ferrum/internal/asm"
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

// TestRodiniaDecodesFully is in equiv_test.go; here we check a small parsed
// program decodes every instruction off the slow path, so the decoded
// dispatch actually covers the common shapes.
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
	for i := range m.uops {
		if m.uops[i].code == uSlow {
			t.Errorf("instruction %d (%s) decoded to the slow path",
				i, m.insts[i].in.String())
		}
	}
}
