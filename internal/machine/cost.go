package machine

import "ferrum/internal/asm"

type cost struct {
	scalar     float64
	vector     float64
	takenExtra float64 // additional scalar cost when a conditional jump is taken
}

// CostModel holds the per-operation cycle costs of the machine. The model
// is a dual-issue approximation of an out-of-order x86 core: scalar and
// vector operations accumulate on separate units, and within one span —
// from one control transfer to the next, so a fall-through into a jump
// target does not end it — the units overlap, so a span costs
// max(scalar, vector). Every cost is a whole number of quarter cycles,
// which keeps the block loop's per-segment float sums exact
// (TestCostsAreQuarterCycles). Constants are effective throughput costs calibrated against published Intel
// latency/throughput tables (Agner Fog's instruction tables for
// Haswell-Skylake class Xeons); see DESIGN.md.
//
// This structure is what lets the paper's performance result emerge from
// mechanism rather than curve-fitting: FERRUM pushes its duplication and
// checking work onto the otherwise-idle vector unit and replaces
// per-instruction checker branches with one branch per batch, while
// HYBRID-ASSEMBLY-LEVEL-EDDI pays scalar duplication, a flag-writing xor
// and a jne for every protected instruction.
type CostModel struct {
	MovRR   float64 // register-to-register move
	MovImm  float64 // immediate-to-register move
	Load    float64 // memory read
	Store   float64 // memory write
	ALU     float64 // add/sub/logic/shift/neg, register or immediate forms
	Lea     float64
	IMul    float64
	IDiv    float64
	Cqto    float64
	Setcc   float64
	Jmp     float64
	Jcc     float64 // static cost of a conditional jump
	JccTak  float64 // extra cost when taken (redirect penalty)
	Call    float64
	Ret     float64
	PushPop float64
	Out     float64

	// Vector-unit costs (the FERRUM check path).
	VMov      float64 // movq gpr<->xmm
	VPinsrReg float64 // pinsrq from register
	VPinsrMem float64 // pinsrq from memory (uses a load uop too)
	VInsert   float64 // vinserti128
	VPXor     float64
	VPTest    float64
}

// DefaultCostModel returns the calibrated cost model.
func DefaultCostModel() *CostModel {
	return &CostModel{
		MovRR:   0.5, // move elimination at rename
		MovImm:  0.5,
		Load:    2,
		Store:   2,
		ALU:     0.5, // 4-wide issue, 0.25c reciprocal throughput
		Lea:     0.5,
		IMul:    3,
		IDiv:    24,
		Cqto:    0.5,
		Setcc:   0.5,
		Jmp:     1,
		Jcc:     0.5, // predicted not-taken: near-free
		JccTak:  2.5, // taken-branch redirect
		Call:    5,
		Ret:     5,
		PushPop: 1.5,
		Out:     2,

		VMov:      0.5,
		VPinsrReg: 0.75,
		VPinsrMem: 1.5,
		VInsert:   1,
		VPXor:     0.5,
		VPTest:    1,
	}
}

// staticCost computes the per-execution cost of an instruction from its
// opcode and operand shapes.
func (c *CostModel) staticCost(in asm.Inst) cost {
	hasMemSrc := false
	hasMemDst := false
	for i, a := range in.A {
		if a.Kind == asm.KMem {
			if i == len(in.A)-1 {
				hasMemDst = true
			} else {
				hasMemSrc = true
			}
		}
	}
	switch in.Op {
	case asm.NOP, asm.HALT, asm.DETECT:
		return cost{}
	case asm.MOVQ, asm.MOVL, asm.MOVB, asm.MOVSLQ, asm.MOVZBQ:
		// SIMD transfer forms run on the vector unit.
		if len(in.A) == 2 && (in.A[0].Kind == asm.KXReg || in.A[1].Kind == asm.KXReg) {
			if hasMemSrc || hasMemDst {
				return cost{vector: c.VPinsrMem}
			}
			return cost{vector: c.VMov}
		}
		switch {
		case hasMemSrc:
			return cost{scalar: c.Load}
		case hasMemDst:
			return cost{scalar: c.Store}
		case in.A[0].Kind == asm.KImm:
			return cost{scalar: c.MovImm}
		default:
			return cost{scalar: c.MovRR}
		}
	case asm.LEA:
		return cost{scalar: c.Lea}
	case asm.ADDQ, asm.SUBQ, asm.ANDQ, asm.ORQ, asm.XORQ, asm.XORB,
		asm.SHLQ, asm.SHRQ, asm.SARQ, asm.NEGQ:
		s := c.ALU
		if hasMemSrc {
			s += c.Load
		}
		if hasMemDst {
			s += c.Load + c.Store
		}
		return cost{scalar: s}
	case asm.IMULQ:
		s := c.IMul
		if hasMemSrc {
			s += c.Load
		}
		return cost{scalar: s}
	case asm.IDIVQ:
		s := c.IDiv
		if hasMemSrc {
			s += c.Load
		}
		return cost{scalar: s}
	case asm.CQTO:
		return cost{scalar: c.Cqto}
	case asm.CMPQ, asm.CMPL, asm.CMPB, asm.TESTQ:
		s := c.ALU
		if hasMemSrc || hasMemDst {
			s += c.Load
		}
		return cost{scalar: s}
	case asm.JMP:
		return cost{scalar: c.Jmp}
	case asm.JE, asm.JNE, asm.JL, asm.JLE, asm.JG, asm.JGE:
		return cost{scalar: c.Jcc, takenExtra: c.JccTak}
	case asm.CALL:
		return cost{scalar: c.Call}
	case asm.RET:
		return cost{scalar: c.Ret}
	case asm.SETE, asm.SETNE, asm.SETL, asm.SETLE, asm.SETG, asm.SETGE:
		return cost{scalar: c.Setcc}
	case asm.PUSHQ, asm.POPQ:
		return cost{scalar: c.PushPop}
	case asm.PINSRQ:
		if in.A[1].Kind == asm.KMem {
			return cost{vector: c.VPinsrMem}
		}
		return cost{vector: c.VPinsrReg}
	case asm.VINSERTI128, asm.VINSERTI644:
		return cost{vector: c.VInsert}
	case asm.VPXOR:
		return cost{vector: c.VPXor}
	case asm.VPTEST:
		return cost{vector: c.VPTest}
	case asm.OUT:
		return cost{scalar: c.Out}
	}
	return cost{scalar: 1}
}
