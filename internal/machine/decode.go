package machine

import (
	"fmt"

	"ferrum/internal/asm"
)

// ucode is the machine's dense internal opcode. Each value fuses an asm.Op
// with the operand-kind shape and width of one concrete instruction, so the
// interpreter's step dispatches exactly once per dynamic instruction
// instead of re-switching through operand kinds and widths per operand.
// Decoding happens once, at load time (Decode), in the spirit of the
// paper's "pay the analysis cost statically" philosophy.
//
// Decode is total: every instruction shape it accepts becomes one of the
// fused codes below, and every other shape (memory-to-memory forms,
// immediate or SIMD operands where the instruction needs a register or
// memory, non-label jump targets, statically out-of-range lanes) is a
// load-time error. step therefore has no fallback case. The generic
// per-operand interpreter survives only as the test oracle the fused
// dispatch is checked against (reference_test.go).
type ucode uint16

const (
	uUndecoded ucode = iota // no fused form: decode rejects the instruction
	uNop
	uHalt
	uDetect

	// Scalar moves: src kind (R=register, I=immediate, M=memory) ×
	// dst kind × width.
	uMovRR64
	uMovRR32
	uMovRR8
	uMovIR64
	uMovIR32
	uMovIR8
	uMovMR64
	uMovMR32
	uMovMR8
	uMovRM64
	uMovRM32
	uMovRM8
	uMovIM64
	uMovIM32
	uMovIM8

	// movq GPR<->XMM transfer forms (X = SIMD register lane 0).
	uMovXX
	uMovRX
	uMovIX
	uMovMX
	uMovXR
	uMovXM

	// Widening moves.
	uMovslqRR
	uMovslqMR
	uMovzbqRR
	uMovzbqMR

	uLea

	// Two-operand ALU, 64-bit: five src×dst forms each.
	uAddRR
	uAddIR
	uAddMR
	uAddRM
	uAddIM
	uSubRR
	uSubIR
	uSubMR
	uSubRM
	uSubIM
	uImulRR
	uImulIR
	uImulMR
	uImulRM
	uImulIM
	uAndRR
	uAndIR
	uAndMR
	uAndRM
	uAndIM
	uOrRR
	uOrIR
	uOrMR
	uOrRM
	uOrIM
	uXorRR
	uXorIR
	uXorMR
	uXorRM
	uXorIM
	uShlRR
	uShlIR
	uShlMR
	uShlRM
	uShlIM
	uShrRR
	uShrIR
	uShrMR
	uShrRM
	uShrIM
	uSarRR
	uSarIR
	uSarMR
	uSarRM
	uSarIM

	// xorb: 8-bit xor (the EDDI-style flag-writing check xor).
	uXorbRR
	uXorbIR
	uXorbMR
	uXorbRM
	uXorbIM

	uNegR
	uNegM
	uCqto
	uIdivR
	uIdivM

	// Compares (flags only): src×dst forms × width.
	uCmpRR64
	uCmpIR64
	uCmpMR64
	uCmpRM64
	uCmpIM64
	uCmpRR32
	uCmpIR32
	uCmpMR32
	uCmpRM32
	uCmpIM32
	uCmpRR8
	uCmpIR8
	uCmpMR8
	uCmpRM8
	uCmpIM8
	uTestRR
	uTestIR

	// Control flow: targets pre-resolved to instruction indices.
	uJmp
	uJcc
	uCall
	uRet
	uSetccR

	uPushR
	uPushI
	uPushM
	uPopR

	// SIMD (the FERRUM check path).
	uPinsrqR
	uPinsrqM
	uVinserti128
	uVinserti644
	uVpxor
	uVptest

	uOutR
)

// uop is one decoded instruction in the hot execution array. It is the
// machine's threaded-code form: the fused opcode plus every pre-extracted
// operand the fast path needs, sized well under a cache line so the inner
// loop's working set stays small. The parallel flatInst array keeps the
// cold data (original asm form, provenance, fault destination) that only
// profiling, tracing and fault application consult.
type uop struct {
	code     ucode
	r1       asm.Reg // source GPR
	r2       asm.Reg // destination (or second source) GPR
	cc       asm.CC  // condition code of Jcc/SETcc
	lane     int8    // static SIMD lane (pinsrq/vinserti*)
	lanes    int8    // lane count of the operand view (vpxor/vptest)
	x1       asm.XReg
	x2       asm.XReg
	x3       asm.XReg
	destKind asm.DestKind // DestOf kind, for the per-site hot check
	target   int32        // jump/call target resolved to an instruction index
	imm      uint64       // immediate, pre-masked to the operation width
	mem      asm.Mem      // memory reference, Scale normalised (0 -> 1)
	cost     cost
}

// normMem normalises a memory reference for the fused effective-address
// computation: Scale 0 means 1 (matching Mem.effScale), so the hot path can
// multiply unconditionally. Base/Index stay as-is — gpr[RNone] is
// invariantly zero, which makes the address computation branch-free.
func normMem(mm asm.Mem) asm.Mem {
	if mm.Scale == 0 {
		mm.Scale = 1
	}
	return mm
}

// decodeSrcDst selects among the five fused src×dst forms of a two-operand
// instruction: reg→reg, imm→reg, mem→reg, reg→mem and imm→mem. Immediates
// are pre-masked to the operation width. Any other pair (mem→mem, an
// immediate, SIMD or label operand in the wrong slot) leaves u.code at
// uUndecoded, so decode rejects it.
func decodeSrcDst(u *uop, w asm.Width, src, dst asm.Operand, rr, ir, mr, rm, im ucode) {
	switch dst.Kind {
	case asm.KReg:
		u.r2 = dst.Reg
		switch src.Kind {
		case asm.KReg:
			u.code, u.r1 = rr, src.Reg
		case asm.KImm:
			u.code, u.imm = ir, uint64(src.Imm)&widthMask(w)
		case asm.KMem:
			u.code, u.mem = mr, normMem(src.M)
		}
	case asm.KMem:
		u.mem = normMem(dst.M)
		switch src.Kind {
		case asm.KReg:
			u.code, u.r1 = rm, src.Reg
		case asm.KImm:
			u.code, u.imm = im, uint64(src.Imm)&widthMask(w)
		}
	}
}

// decodeXMov selects among the movq GPR/XMM transfer forms (lane 0, upper
// lane zeroed on write); other operand pairs stay uUndecoded.
func decodeXMov(u *uop, src, dst asm.Operand) {
	switch {
	case src.Kind == asm.KXReg && dst.Kind == asm.KXReg:
		u.code, u.x1, u.x2 = uMovXX, src.X, dst.X
	case dst.Kind == asm.KXReg:
		u.x2 = dst.X
		switch src.Kind {
		case asm.KReg:
			u.code, u.r1 = uMovRX, src.Reg
		case asm.KImm:
			u.code, u.imm = uMovIX, uint64(src.Imm)
		case asm.KMem:
			u.code, u.mem = uMovMX, normMem(src.M)
		}
	default: // xmm -> gpr/mem
		u.x1 = src.X
		switch dst.Kind {
		case asm.KReg:
			u.code, u.r2 = uMovXR, dst.Reg
		case asm.KMem:
			u.code, u.mem = uMovXM, normMem(dst.M)
		}
	}
}

// decodeRM sets the register or memory form of a one-operand instruction
// whose operand is read or written whole; other kinds stay uUndecoded.
func decodeRM(u *uop, o asm.Operand, r, m ucode) {
	switch o.Kind {
	case asm.KReg:
		u.code, u.r1 = r, o.Reg
	case asm.KMem:
		u.code, u.mem = m, normMem(o.M)
	}
}

// staticLane reports the lane an immediate lane operand selects, and
// whether it is one of the two 128/256-bit halves the SIMD inserts support.
func staticLane(o asm.Operand) (int8, bool) {
	if o.Kind != asm.KImm || o.Imm < 0 || o.Imm > 1 {
		return 0, false
	}
	return int8(o.Imm), true
}

// allXRegs reports whether every operand is a SIMD register.
func allXRegs(ops ...asm.Operand) bool {
	for _, o := range ops {
		if o.Kind != asm.KXReg {
			return false
		}
	}
	return true
}

// resolveTarget resolves a jump/call target label to an instruction index
// at load time. A non-label target leaves u.code at uUndecoded; an
// undefined label is an error of its own (Program.Validate already rejects
// it on the public Decode path).
func resolveTarget(u *uop, fi *flatInst, labels map[string]int, o asm.Operand, code ucode) error {
	if o.Kind != asm.KLabel {
		return nil
	}
	idx, ok := labels[o.Label]
	if !ok {
		return fmt.Errorf("machine: %s+%d: %s: undefined label %q",
			fi.fn, fi.idx, fi.in.Op, o.Label)
	}
	u.code, u.target = code, int32(idx)
	return nil
}

// decode compiles one flattened instruction into its fused uop form. It
// runs once per static instruction at load time, after the label map is
// built. It is the one place that decides which operand shapes the machine
// executes: a shape with no fused form leaves u.code at uUndecoded and is
// rejected with an error naming the instruction.
func decode(u *uop, fi *flatInst, labels map[string]int) error {
	u.code = uUndecoded
	u.destKind = fi.dest.Kind
	in := &fi.in
	a := in.A
	var err error
	switch in.Op {
	case asm.NOP:
		u.code = uNop
	case asm.HALT:
		u.code = uHalt
	case asm.DETECT:
		u.code = uDetect
	case asm.CQTO:
		u.code = uCqto
	case asm.RET:
		u.code = uRet

	case asm.MOVQ, asm.MOVL, asm.MOVB:
		if len(a) != 2 {
			break
		}
		if a[0].Kind == asm.KXReg || a[1].Kind == asm.KXReg {
			decodeXMov(u, a[0], a[1])
			break
		}
		switch in.Op {
		case asm.MOVQ:
			decodeSrcDst(u, asm.W64, a[0], a[1], uMovRR64, uMovIR64, uMovMR64, uMovRM64, uMovIM64)
		case asm.MOVL:
			decodeSrcDst(u, asm.W32, a[0], a[1], uMovRR32, uMovIR32, uMovMR32, uMovRM32, uMovIM32)
		default:
			decodeSrcDst(u, asm.W8, a[0], a[1], uMovRR8, uMovIR8, uMovMR8, uMovRM8, uMovIM8)
		}

	case asm.MOVSLQ, asm.MOVZBQ:
		if len(a) != 2 || a[1].Kind != asm.KReg {
			break
		}
		u.r2 = a[1].Reg
		if in.Op == asm.MOVSLQ {
			decodeRM(u, a[0], uMovslqRR, uMovslqMR)
		} else {
			decodeRM(u, a[0], uMovzbqRR, uMovzbqMR)
		}

	case asm.LEA:
		if len(a) == 2 && a[0].Kind == asm.KMem && a[1].Kind == asm.KReg {
			u.code, u.mem, u.r2 = uLea, normMem(a[0].M), a[1].Reg
		}

	case asm.ADDQ, asm.SUBQ, asm.IMULQ, asm.ANDQ, asm.ORQ, asm.XORQ,
		asm.SHLQ, asm.SHRQ, asm.SARQ, asm.XORB:
		if len(a) != 2 {
			break
		}
		var rr ucode
		w := asm.W64
		switch in.Op {
		case asm.ADDQ:
			rr = uAddRR
		case asm.SUBQ:
			rr = uSubRR
		case asm.IMULQ:
			rr = uImulRR
		case asm.ANDQ:
			rr = uAndRR
		case asm.ORQ:
			rr = uOrRR
		case asm.XORQ:
			rr = uXorRR
		case asm.SHLQ:
			rr = uShlRR
		case asm.SHRQ:
			rr = uShrRR
		case asm.SARQ:
			rr = uSarRR
		case asm.XORB:
			rr, w = uXorbRR, asm.W8
		}
		// The five forms of each op are laid out contiguously (RR IR MR RM
		// IM), so one base code plus decodeSrcDst's offsets cover them all.
		decodeSrcDst(u, w, a[0], a[1], rr, rr+1, rr+2, rr+3, rr+4)

	case asm.NEGQ:
		if len(a) == 1 {
			decodeRM(u, a[0], uNegR, uNegM)
		}
	case asm.IDIVQ:
		if len(a) == 1 {
			decodeRM(u, a[0], uIdivR, uIdivM)
		}

	case asm.CMPQ, asm.CMPL, asm.CMPB:
		if len(a) != 2 {
			break
		}
		switch in.Op {
		case asm.CMPQ:
			decodeSrcDst(u, asm.W64, a[0], a[1], uCmpRR64, uCmpIR64, uCmpMR64, uCmpRM64, uCmpIM64)
		case asm.CMPL:
			decodeSrcDst(u, asm.W32, a[0], a[1], uCmpRR32, uCmpIR32, uCmpMR32, uCmpRM32, uCmpIM32)
		default:
			decodeSrcDst(u, asm.W8, a[0], a[1], uCmpRR8, uCmpIR8, uCmpMR8, uCmpRM8, uCmpIM8)
		}
	case asm.TESTQ:
		if len(a) != 2 || a[1].Kind != asm.KReg {
			break
		}
		u.r2 = a[1].Reg
		switch a[0].Kind {
		case asm.KReg:
			u.code, u.r1 = uTestRR, a[0].Reg
		case asm.KImm:
			u.code, u.imm = uTestIR, uint64(a[0].Imm)
		}

	case asm.JMP, asm.CALL:
		if len(a) == 1 {
			code := uJmp
			if in.Op == asm.CALL {
				code = uCall
			}
			err = resolveTarget(u, fi, labels, a[0], code)
		}
	case asm.JE, asm.JNE, asm.JL, asm.JLE, asm.JG, asm.JGE:
		if len(a) == 1 {
			u.cc = asm.CondOf(in.Op)
			err = resolveTarget(u, fi, labels, a[0], uJcc)
		}

	case asm.SETE, asm.SETNE, asm.SETL, asm.SETLE, asm.SETG, asm.SETGE:
		if len(a) == 1 && a[0].Kind == asm.KReg {
			u.code, u.cc, u.r2 = uSetccR, asm.CondOf(in.Op), a[0].Reg
		}

	case asm.PUSHQ:
		if len(a) != 1 {
			break
		}
		if a[0].Kind == asm.KImm {
			u.code, u.imm = uPushI, uint64(a[0].Imm)
		} else {
			decodeRM(u, a[0], uPushR, uPushM)
		}
	case asm.POPQ:
		if len(a) == 1 && a[0].Kind == asm.KReg {
			u.code, u.r2 = uPopR, a[0].Reg
		}

	case asm.PINSRQ:
		if len(a) != 3 || a[2].Kind != asm.KXReg {
			break
		}
		lane, ok := staticLane(a[0])
		if !ok {
			break
		}
		u.lane, u.x2 = lane, a[2].X
		decodeRM(u, a[1], uPinsrqR, uPinsrqM)
	case asm.VINSERTI128, asm.VINSERTI644:
		if len(a) != 4 || !allXRegs(a[1:]...) {
			break
		}
		lane, ok := staticLane(a[0])
		if !ok {
			break
		}
		u.lane, u.x1, u.x2, u.x3 = lane, a[1].X, a[2].X, a[3].X
		if in.Op == asm.VINSERTI128 {
			u.code = uVinserti128
		} else {
			u.code = uVinserti644
		}
	case asm.VPXOR:
		if len(a) == 3 && allXRegs(a...) {
			u.code = uVpxor
			u.x1, u.x2, u.x3 = a[0].X, a[1].X, a[2].X
			u.lanes = int8(a[2].XW.Lanes())
		}
	case asm.VPTEST:
		if len(a) == 2 && allXRegs(a...) {
			u.code, u.x1, u.x2 = uVptest, a[0].X, a[1].X
			u.lanes = int8(a[1].XW.Lanes())
		}

	case asm.OUT:
		if len(a) == 1 && a[0].Kind == asm.KReg {
			u.code, u.r1 = uOutR, a[0].Reg
		}
	}
	if err != nil {
		return err
	}
	if u.code == uUndecoded {
		return fmt.Errorf("machine: %s+%d: %s: unsupported operand shape", fi.fn, fi.idx, in.String())
	}
	return nil
}
