package asm

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegNames(t *testing.T) {
	tests := []struct {
		r    Reg
		w    Width
		want string
	}{
		{RAX, W64, "rax"},
		{RAX, W32, "eax"},
		{RAX, W16, "ax"},
		{RAX, W8, "al"},
		{RSI, W8, "sil"},
		{R10, W64, "r10"},
		{R10, W32, "r10d"},
		{R11, W8, "r11b"},
		{R15, W16, "r15w"},
	}
	for _, tt := range tests {
		if got := tt.r.Name(tt.w); got != tt.want {
			t.Errorf("%v.Name(%v) = %q, want %q", tt.r, tt.w, got, tt.want)
		}
		r, w, ok := LookupReg(tt.want)
		if !ok || r != tt.r || w != tt.w {
			t.Errorf("LookupReg(%q) = (%v, %v, %v), want (%v, %v, true)",
				tt.want, r, w, ok, tt.r, tt.w)
		}
	}
}

func TestRegNameRoundTripProperty(t *testing.T) {
	f := func(rRaw, wRaw uint8) bool {
		r := Reg(rRaw%uint8(NumReg-1)) + 1
		ws := []Width{W8, W16, W32, W64}
		w := ws[int(wRaw)%len(ws)]
		name := r.Name(w)
		r2, w2, ok := LookupReg(name)
		return ok && r2 == r && w2 == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXRegNames(t *testing.T) {
	if got := XReg(3).Name(X128); got != "xmm3" {
		t.Errorf("xmm name = %q", got)
	}
	if got := XReg(15).Name(Y256); got != "ymm15" {
		t.Errorf("ymm name = %q", got)
	}
	x, w, ok := LookupXReg("ymm7")
	if !ok || x != 7 || w != Y256 {
		t.Errorf("LookupXReg(ymm7) = (%v, %v, %v)", x, w, ok)
	}
	if _, _, ok := LookupXReg("xmm16"); ok {
		t.Error("LookupXReg(xmm16) should fail")
	}
}

func TestCCNegate(t *testing.T) {
	pairs := map[CC]CC{CCE: CCNE, CCL: CCGE, CCLE: CCG}
	for c, n := range pairs {
		if c.Negate() != n {
			t.Errorf("%v.Negate() = %v, want %v", c, c.Negate(), n)
		}
		if n.Negate() != c {
			t.Errorf("%v.Negate() = %v, want %v", n, n.Negate(), c)
		}
	}
}

func TestCondOpcodesAgree(t *testing.T) {
	for _, c := range []CC{CCE, CCNE, CCL, CCLE, CCG, CCGE} {
		if got := CondOf(JccFor(c)); got != c {
			t.Errorf("CondOf(JccFor(%v)) = %v", c, got)
		}
		if got := CondOf(SetccFor(c)); got != c {
			t.Errorf("CondOf(SetccFor(%v)) = %v", c, got)
		}
	}
}

func TestMemString(t *testing.T) {
	tests := []struct {
		m    Mem
		want string
	}{
		{Mem{Base: RBP, Disp: -24}, "-24(%rbp)"},
		{Mem{Base: RAX}, "(%rax)"},
		{Mem{Base: RAX, Index: RCX, Scale: 8}, "(%rax,%rcx,8)"},
		{Mem{Base: RAX, Index: RCX, Scale: 8, Disp: 16}, "16(%rax,%rcx,8)"},
		{Mem{Disp: 4096}, "4096"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("Mem%+v.String() = %q, want %q", tt.m, got, tt.want)
		}
	}
}

func TestInstString(t *testing.T) {
	tests := []struct {
		in   Inst
		want string
	}{
		{NewInst(MOVSLQ, Reg32(RCX), Reg64(R10)), "movslq\t%ecx, %r10"},
		{NewInst(CMPQ, Imm(0), MemBD(RBP, -8)), "cmpq\t$0, -8(%rbp)"},
		{NewInst(JNE, LabelOp("exit_function")), "jne\texit_function"},
		{NewInst(PINSRQ, Imm(1), MemBD(RAX, 8), Xmm(0)), "pinsrq\t$1, 8(%rax), %xmm0"},
		{NewInst(VINSERTI128, Imm(1), Xmm(2), Ymm(0), Ymm(0)),
			"vinserti128\t$1, %xmm2, %ymm0, %ymm0"},
		{NewInst(VPXOR, Ymm(1), Ymm(0), Ymm(0)), "vpxor\t%ymm1, %ymm0, %ymm0"},
		{NewInst(RET), "retq"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("Inst.String() = %q, want %q", got, tt.want)
		}
	}
}

func parseOne(t *testing.T, line string) Inst {
	t.Helper()
	in, err := parseInst(line)
	if err != nil {
		t.Fatalf("parseInst(%q): %v", line, err)
	}
	return in
}

func TestParseInstRoundTrip(t *testing.T) {
	lines := []string{
		"movslq\t%ecx, %r10",
		"movq\t-24(%rbp), %xmm0",
		"movq\t%rax, %xmm1",
		"pinsrq\t$1, 8(%rax), %xmm0",
		"vinserti128\t$1, %xmm2, %ymm0, %ymm0",
		"vpxor\t%ymm1, %ymm0, %ymm0",
		"vptest\t%ymm0, %ymm0",
		"jne\texit_function",
		"xorq\t%rcx, %r10",
		"sete\t%r11b",
		"cmpl\t$0, -4(%rbp)",
		"pushq\t%r10",
		"popq\t%r10",
		"leaq\t(%rax,%rcx,8), %rdx",
		"idivq\t%rcx",
		"cqto",
		"callq\tmain",
		"retq",
		"out\t%rax",
		"hlt",
		"detect",
	}
	for _, l := range lines {
		in := parseOne(t, l)
		if got := in.String(); got != l {
			t.Errorf("round trip: %q -> %q", l, got)
		}
	}
}

func TestParseProgram(t *testing.T) {
	src := `
	.globl	main
main:
	pushq	%rbp
	movq	%rsp, %rbp
.L0:
	movslq	%ecx, %r10
	cmpq	$0, -8(%rbp)	# reload comparison
	je	.L1
	jmp	.L0
.L1:
	popq	%rbp
	retq

	.globl	helper
helper:
	retq
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Funcs) != 2 {
		t.Fatalf("got %d funcs, want 2", len(p.Funcs))
	}
	if p.Entry != "main" {
		t.Errorf("entry = %q, want main", p.Entry)
	}
	main := p.Func("main")
	if main == nil || len(main.Insts) != 8 {
		t.Fatalf("main = %+v", main)
	}
	if got := main.Insts[2].Labels; len(got) != 1 || got[0] != ".L0" {
		t.Errorf("labels on inst 2 = %v", got)
	}
	// Full program round-trip through the printer.
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("re-parse printed program: %v", err)
	}
	if p.String() != p2.String() {
		t.Errorf("print/parse round trip mismatch:\n%s\nvs\n%s", p, p2)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"unknown mnemonic", ".globl f\nf:\n\tfrobq %rax, %rbx\n"},
		{"bad operand count", ".globl f\nf:\n\tmovq %rax\n"},
		{"unknown register", ".globl f\nf:\n\tmovq %rqx, %rbx\n"},
		{"undefined label", ".globl f\nf:\n\tjmp nowhere\n"},
		{"instruction outside function", "\tmovq %rax, %rbx\n"},
		{"duplicate label", ".globl f\nf:\nx:\n\tretq\nx:\n\tretq\n"},
		{"unknown directive", ".frob x\n.globl f\nf:\n\tretq\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.src); err == nil {
				t.Errorf("Parse succeeded, want error")
			}
		})
	}
}

func TestDestOf(t *testing.T) {
	tests := []struct {
		in   Inst
		want Dest
	}{
		{NewInst(MOVQ, MemBD(RBP, -8), Reg64(RAX)), Dest{Kind: DestGPR, Reg: RAX, W: W64}},
		{NewInst(MOVQ, Reg64(RAX), MemBD(RBP, -8)), Dest{}},
		{NewInst(MOVQ, Reg64(RAX), Xmm(1)), Dest{Kind: DestXMM, X: 1}},
		{NewInst(MOVSLQ, Reg32(RCX), Reg64(R10)), Dest{Kind: DestGPR, Reg: R10, W: W64}},
		{NewInst(ADDQ, Reg64(RCX), Reg64(RAX)), Dest{Kind: DestGPR, Reg: RAX, W: W64}},
		{NewInst(CMPQ, Imm(0), MemBD(RBP, -8)), Dest{Kind: DestFlags}},
		{NewInst(TESTQ, Reg64(RAX), Reg64(RAX)), Dest{Kind: DestFlags}},
		{NewInst(SETE, Reg8(R11)), Dest{Kind: DestGPR, Reg: R11, W: W8}},
		{NewInst(PUSHQ, Reg64(R10)), Dest{}},
		{NewInst(POPQ, Reg64(R10)), Dest{Kind: DestGPR, Reg: R10, W: W64}},
		{NewInst(PINSRQ, Imm(1), Reg64(RDI), Xmm(3)),
			Dest{Kind: DestXMM, X: 3, LaneLo: 1, LaneHi: 1}},
		{NewInst(VPXOR, Ymm(1), Ymm(0), Ymm(0)),
			Dest{Kind: DestXMM, X: 0, LaneLo: 0, LaneHi: 3}},
		{NewInst(VPTEST, Ymm(0), Ymm(0)), Dest{Kind: DestFlags}},
		{NewInst(JNE, LabelOp("x")), Dest{}},
		{NewInst(CALL, LabelOp("f")), Dest{}},
		{NewInst(RET), Dest{}},
		{NewInst(LEA, MemBIS(RAX, RCX, 8, 0), Reg64(RDX)),
			Dest{Kind: DestGPR, Reg: RDX, W: W64}},
		{NewInst(IDIVQ, Reg64(RCX)), Dest{Kind: DestGPR, Reg: RAX, W: W64}},
		{NewInst(CQTO), Dest{Kind: DestGPR, Reg: RDX, W: W64}},
		{NewInst(OUT, Reg64(RAX)), Dest{}},
	}
	for _, tt := range tests {
		if got := DestOf(tt.in); got != tt.want {
			t.Errorf("DestOf(%s) = %+v, want %+v", tt.in.String(), got, tt.want)
		}
	}
}

func TestGPRUses(t *testing.T) {
	has := func(rs []Reg, r Reg) bool {
		for _, x := range rs {
			if x == r {
				return true
			}
		}
		return false
	}
	in := NewInst(LEA, MemBIS(RAX, RCX, 8, 0), Reg64(RDX))
	uses := GPRUses(in, nil)
	if !has(uses, RAX) || !has(uses, RCX) || has(uses, RDX) {
		t.Errorf("lea uses = %v", uses)
	}
	in = NewInst(ADDQ, Reg64(RCX), Reg64(RAX))
	uses = GPRUses(in, nil)
	if !has(uses, RCX) || !has(uses, RAX) {
		t.Errorf("add uses = %v", uses)
	}
	in = NewInst(MOVQ, Reg64(RSI), MemBD(RDI, 8))
	uses = GPRUses(in, nil)
	if !has(uses, RSI) || !has(uses, RDI) {
		t.Errorf("store uses = %v", uses)
	}
	in = NewInst(MOVQ, MemBD(RBP, -8), Reg64(RAX))
	uses = GPRUses(in, nil)
	if !has(uses, RBP) || has(uses, RAX) {
		t.Errorf("load uses = %v", uses)
	}
	if GPRDef(in) != RAX {
		t.Errorf("load def = %v", GPRDef(in))
	}
	in = NewInst(IDIVQ, Reg64(RCX))
	uses = GPRUses(in, nil)
	if !has(uses, RAX) || !has(uses, RDX) || !has(uses, RCX) {
		t.Errorf("idiv uses = %v", uses)
	}
}

func TestBlocks(t *testing.T) {
	src := `
	.globl	f
f:
	movq	$1, %rax
	cmpq	$0, %rax
	je	.La
	addq	$1, %rax
.La:
	subq	$1, %rax
	jmp	.Lb
.Lb:
	retq
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	blocks := Blocks(p.Funcs[0])
	if len(blocks) != 4 {
		t.Fatalf("got %d blocks, want 4: %+v", len(blocks), blocks)
	}
	wantStarts := []int{0, 3, 4, 6}
	for i, b := range blocks {
		if b.Start != wantStarts[i] {
			t.Errorf("block %d start = %d, want %d", i, b.Start, wantStarts[i])
		}
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	p := &Program{Funcs: []*Func{{Name: "f", Insts: []Inst{
		NewInst(JMP, LabelOp("missing")),
	}}}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("Validate = %v, want undefined-label error", err)
	}
	p = &Program{Funcs: []*Func{{Name: "f"}}}
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted empty function")
	}
	p = &Program{Funcs: []*Func{
		{Name: "f", Insts: []Inst{NewInst(RET)}},
		{Name: "f", Insts: []Inst{NewInst(RET)}},
	}}
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted duplicate function names")
	}
	bad := NewInst(NOP).WithTag(Tag(NumTags))
	p = &Program{Funcs: []*Func{{Name: "f", Insts: []Inst{NewInst(NOP), bad}}}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "f+1") {
		t.Errorf("Validate = %v, want an out-of-range tag error naming f+1", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := &Program{Entry: "f", Funcs: []*Func{{Name: "f", Insts: []Inst{
		NewInst(MOVQ, Imm(1), Reg64(RAX)),
		NewInst(RET),
	}}}}
	q := p.Clone()
	q.Funcs[0].Insts[0].A[0] = Imm(2)
	q.Funcs[0].Name = "g"
	if p.Funcs[0].Insts[0].A[0].Imm != 1 || p.Funcs[0].Name != "f" {
		t.Error("Clone shares state with original")
	}
}

func TestCollectStats(t *testing.T) {
	p := &Program{Funcs: []*Func{{Name: "f", Insts: []Inst{
		NewInst(MOVQ, Imm(1), Reg64(RAX)),
		NewInst(CMPQ, Imm(0), Reg64(RAX)),
		NewInst(JE, LabelOp("f")),
		NewInst(RET),
	}}}}
	s := CollectStats(p)
	if s.Total != 4 || s.Funcs != 1 {
		t.Errorf("stats = %+v", s)
	}
	// movq writes RAX, cmpq writes flags; je and ret have no dest.
	if s.FISites != 2 {
		t.Errorf("FISites = %d, want 2", s.FISites)
	}
}
