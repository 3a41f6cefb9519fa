package machine

import (
	"fmt"

	"ferrum/internal/asm"
)

// ucode is the machine's dense internal opcode. Each value fuses an asm.Op
// with the operand-kind shape and width of one concrete instruction, so the
// interpreter's step dispatches exactly once per dynamic instruction
// instead of re-switching through readOperand/writeOperand/widthMask per
// operand. Decoding happens once, at load time (Decode), in the spirit of the
// paper's "pay the analysis cost statically" philosophy.
//
// uSlow is the escape hatch: operand shapes the fused cases do not cover
// (memory-to-memory ALU forms, immediate destinations, SIMD operands in
// scalar slots, non-label jump targets, statically out-of-range PINSRQ
// lanes) fall back to the generic interpreter, which preserves the exact
// legacy runtime semantics — including crash messages — for degenerate
// programs. Compiled Rodinia programs decode with zero slow uops (see
// decode_equiv_test.go).
type ucode uint16

const (
	uSlow ucode = iota // generic fallback: full per-operand interpretation
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
// profiling, tracing, fault application and the slow path consult.
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
// are pre-masked to the operation width. Shapes outside these (mem→mem,
// immediate or SIMD destinations) leave u.code at uSlow.
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

// resolveTarget resolves a jump/call target label to an instruction index
// at load time. Undefined labels are a load-time error here (Program.
// Validate already rejects them on the public Decode path); non-label
// operands keep the instruction on the slow path, where the legacy
// "jump to undefined label" crash is reproduced at runtime.
func (p *program) resolveTarget(u *uop, fi *flatInst, o asm.Operand, code ucode) error {
	if o.Kind != asm.KLabel {
		return nil
	}
	idx, ok := p.labels[o.Label]
	if !ok {
		return fmt.Errorf("machine: %s+%d: %s: undefined label %q",
			fi.fn, fi.idx, fi.in.Op, o.Label)
	}
	u.code, u.target = code, int32(idx)
	return nil
}

// decode compiles one flattened instruction into its fused uop form. It
// runs once per static instruction at load time, after the label map is
// built. Anything it cannot fuse stays at uSlow; decode itself only fails
// on undefined control-flow labels.
func (p *program) decode(u *uop, fi *flatInst) error {
	u.code = uSlow
	u.destKind = fi.dest.Kind
	in := &fi.in
	a := in.A
	switch in.Op {
	case asm.NOP:
		u.code = uNop
	case asm.HALT:
		u.code = uHalt
	case asm.DETECT:
		u.code = uDetect

	case asm.MOVQ, asm.MOVL, asm.MOVB:
		if len(a) != 2 {
			return nil
		}
		src, dst := a[0], a[1]
		// GPR/XMM transfer forms (lane 0, upper lane zeroed on write).
		if src.Kind == asm.KXReg || dst.Kind == asm.KXReg {
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
			return nil
		}
		switch in.Op {
		case asm.MOVQ:
			decodeSrcDst(u, asm.W64, src, dst, uMovRR64, uMovIR64, uMovMR64, uMovRM64, uMovIM64)
		case asm.MOVL:
			decodeSrcDst(u, asm.W32, src, dst, uMovRR32, uMovIR32, uMovMR32, uMovRM32, uMovIM32)
		default:
			decodeSrcDst(u, asm.W8, src, dst, uMovRR8, uMovIR8, uMovMR8, uMovRM8, uMovIM8)
		}

	case asm.MOVSLQ, asm.MOVZBQ:
		if len(a) != 2 || a[1].Kind != asm.KReg {
			return nil
		}
		u.r2 = a[1].Reg
		switch a[0].Kind {
		case asm.KReg:
			u.r1 = a[0].Reg
			if in.Op == asm.MOVSLQ {
				u.code = uMovslqRR
			} else {
				u.code = uMovzbqRR
			}
		case asm.KMem:
			u.mem = normMem(a[0].M)
			if in.Op == asm.MOVSLQ {
				u.code = uMovslqMR
			} else {
				u.code = uMovzbqMR
			}
		}

	case asm.LEA:
		if len(a) != 2 || a[0].Kind != asm.KMem || a[1].Kind != asm.KReg {
			return nil
		}
		u.code, u.mem, u.r2 = uLea, normMem(a[0].M), a[1].Reg

	case asm.ADDQ, asm.SUBQ, asm.IMULQ, asm.ANDQ, asm.ORQ, asm.XORQ,
		asm.SHLQ, asm.SHRQ, asm.SARQ, asm.XORB:
		if len(a) != 2 {
			return nil
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
		if len(a) != 1 {
			return nil
		}
		switch a[0].Kind {
		case asm.KReg:
			u.code, u.r1 = uNegR, a[0].Reg
		case asm.KMem:
			u.code, u.mem = uNegM, normMem(a[0].M)
		}

	case asm.CQTO:
		u.code = uCqto
	case asm.IDIVQ:
		if len(a) != 1 {
			return nil
		}
		switch a[0].Kind {
		case asm.KReg:
			u.code, u.r1 = uIdivR, a[0].Reg
		case asm.KMem:
			u.code, u.mem = uIdivM, normMem(a[0].M)
		}

	case asm.CMPQ, asm.CMPL, asm.CMPB:
		if len(a) != 2 {
			return nil
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
			return nil
		}
		u.r2 = a[1].Reg
		switch a[0].Kind {
		case asm.KReg:
			u.code, u.r1 = uTestRR, a[0].Reg
		case asm.KImm:
			u.code, u.imm = uTestIR, uint64(a[0].Imm)
		}

	case asm.JMP:
		if len(a) != 1 {
			return nil
		}
		return p.resolveTarget(u, fi, a[0], uJmp)
	case asm.JE, asm.JNE, asm.JL, asm.JLE, asm.JG, asm.JGE:
		if len(a) != 1 {
			return nil
		}
		u.cc = asm.CondOf(in.Op)
		return p.resolveTarget(u, fi, a[0], uJcc)
	case asm.CALL:
		if len(a) != 1 {
			return nil
		}
		return p.resolveTarget(u, fi, a[0], uCall)
	case asm.RET:
		u.code = uRet

	case asm.SETE, asm.SETNE, asm.SETL, asm.SETLE, asm.SETG, asm.SETGE:
		if len(a) != 1 || a[0].Kind != asm.KReg {
			return nil
		}
		u.code, u.cc, u.r2 = uSetccR, asm.CondOf(in.Op), a[0].Reg

	case asm.PUSHQ:
		if len(a) != 1 {
			return nil
		}
		switch a[0].Kind {
		case asm.KReg:
			u.code, u.r1 = uPushR, a[0].Reg
		case asm.KImm:
			u.code, u.imm = uPushI, uint64(a[0].Imm)
		case asm.KMem:
			u.code, u.mem = uPushM, normMem(a[0].M)
		}
	case asm.POPQ:
		if len(a) != 1 || a[0].Kind != asm.KReg {
			return nil
		}
		u.code, u.r2 = uPopR, a[0].Reg

	case asm.PINSRQ:
		if len(a) != 3 {
			return nil
		}
		lane := int(a[0].Imm)
		if lane < 0 || lane > 1 {
			return nil // statically doomed: slow path reproduces the crash
		}
		u.lane, u.x2 = int8(lane), a[2].X
		switch a[1].Kind {
		case asm.KReg:
			u.code, u.r1 = uPinsrqR, a[1].Reg
		case asm.KMem:
			u.code, u.mem = uPinsrqM, normMem(a[1].M)
		}
	case asm.VINSERTI128, asm.VINSERTI644:
		if len(a) != 4 {
			return nil
		}
		lane := int(a[0].Imm)
		if lane < 0 || lane > 1 {
			return nil
		}
		u.lane, u.x1, u.x2, u.x3 = int8(lane), a[1].X, a[2].X, a[3].X
		if in.Op == asm.VINSERTI128 {
			u.code = uVinserti128
		} else {
			u.code = uVinserti644
		}
	case asm.VPXOR:
		if len(a) != 3 {
			return nil
		}
		u.code = uVpxor
		u.x1, u.x2, u.x3 = a[0].X, a[1].X, a[2].X
		u.lanes = int8(a[2].XW.Lanes())
	case asm.VPTEST:
		if len(a) != 2 {
			return nil
		}
		u.code, u.x1, u.x2 = uVptest, a[0].X, a[1].X
		u.lanes = int8(a[1].XW.Lanes())

	case asm.OUT:
		if len(a) != 1 || a[0].Kind != asm.KReg {
			return nil
		}
		u.code, u.r1 = uOutR, a[0].Reg
	}
	return nil
}
