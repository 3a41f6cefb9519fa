package machine

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ferrum/internal/asm"
)

// errHalt and errDetect are step's sentinel results for the two terminal
// instructions; any other error is a crash.
var (
	errHalt   = errors.New("machine: halt")
	errDetect = errors.New("machine: detect")
)

// step executes one instruction of a segment that runBlocks has already
// charged: the instruction counts, the cost spans and the sequential pc
// are the caller's. Only a control transfer writes m.pc, and it flushes the
// cycle spans there. Crash conditions come back as errors, and halt and
// detect as errHalt and errDetect. It dispatches once on the fused uop
// code decoded at load time (see decode.go); the inner loop touches no
// maps, no strings and no per-operand kind switches. The caller passes the
// instruction's own index, from which a call computes its return address.
func (m *Machine) step(u *uop, pc int) error {
	switch u.code {
	case uNop:

	// Scalar moves.
	case uMovRR64:
		m.gpr[u.r2] = m.gpr[u.r1]
	case uMovRR32:
		m.gpr[u.r2] = m.gpr[u.r1] & 0xffffffff
	case uMovRR8:
		m.gpr[u.r2] = m.gpr[u.r2]&^uint64(0xff) | m.gpr[u.r1]&0xff
	case uMovIR64, uMovIR32:
		// 32-bit immediates were pre-masked at decode; the write
		// zero-extends either way.
		m.gpr[u.r2] = u.imm
	case uMovIR8:
		m.gpr[u.r2] = m.gpr[u.r2]&^uint64(0xff) | u.imm
	case uMovMR64:
		v, err := m.load64(m.uea(&u.mem))
		if err != nil {
			return err
		}
		m.gpr[u.r2] = v
	case uMovMR32:
		v, err := m.load32(m.uea(&u.mem))
		if err != nil {
			return err
		}
		m.gpr[u.r2] = v
	case uMovMR8:
		v, err := m.load8(m.uea(&u.mem))
		if err != nil {
			return err
		}
		m.gpr[u.r2] = m.gpr[u.r2]&^uint64(0xff) | v
	case uMovRM64:
		if err := m.store64(m.uea(&u.mem), m.gpr[u.r1]); err != nil {
			return err
		}
	case uMovRM32:
		if err := m.store32(m.uea(&u.mem), m.gpr[u.r1]); err != nil {
			return err
		}
	case uMovRM8:
		if err := m.store8(m.uea(&u.mem), m.gpr[u.r1]); err != nil {
			return err
		}
	case uMovIM64:
		if err := m.store64(m.uea(&u.mem), u.imm); err != nil {
			return err
		}
	case uMovIM32:
		if err := m.store32(m.uea(&u.mem), u.imm); err != nil {
			return err
		}
	case uMovIM8:
		if err := m.store8(m.uea(&u.mem), u.imm); err != nil {
			return err
		}

	// movq GPR<->XMM transfers (lane 0; upper lane zeroed on xmm writes).
	case uMovXX:
		m.x[u.x2][0] = m.x[u.x1][0]
		m.x[u.x2][1] = 0
	case uMovRX:
		m.x[u.x2][0] = m.gpr[u.r1]
		m.x[u.x2][1] = 0
	case uMovIX:
		m.x[u.x2][0] = u.imm
		m.x[u.x2][1] = 0
	case uMovMX:
		v, err := m.load64(m.uea(&u.mem))
		if err != nil {
			return err
		}
		m.x[u.x2][0] = v
		m.x[u.x2][1] = 0
	case uMovXR:
		m.gpr[u.r2] = m.x[u.x1][0]
	case uMovXM:
		if err := m.store64(m.uea(&u.mem), m.x[u.x1][0]); err != nil {
			return err
		}

	// Widening moves.
	case uMovslqRR:
		m.gpr[u.r2] = uint64(int64(int32(uint32(m.gpr[u.r1]))))
	case uMovslqMR:
		v, err := m.load32(m.uea(&u.mem))
		if err != nil {
			return err
		}
		m.gpr[u.r2] = uint64(int64(int32(uint32(v))))
	case uMovzbqRR:
		m.gpr[u.r2] = m.gpr[u.r1] & 0xff
	case uMovzbqMR:
		v, err := m.load8(m.uea(&u.mem))
		if err != nil {
			return err
		}
		m.gpr[u.r2] = v

	case uLea:
		m.gpr[u.r2] = m.uea(&u.mem)

	// 64-bit ALU: dst = dst OP src, five operand forms each.
	case uAddRR:
		a, b := m.gpr[u.r2], m.gpr[u.r1]
		r := a + b
		m.setFlagsAdd(a, b, r, asm.W64)
		m.gpr[u.r2] = r
	case uAddIR:
		a := m.gpr[u.r2]
		r := a + u.imm
		m.setFlagsAdd(a, u.imm, r, asm.W64)
		m.gpr[u.r2] = r
	case uAddMR:
		b, err := m.load64(m.uea(&u.mem))
		if err != nil {
			return err
		}
		a := m.gpr[u.r2]
		r := a + b
		m.setFlagsAdd(a, b, r, asm.W64)
		m.gpr[u.r2] = r
	case uAddRM:
		ea := m.uea(&u.mem)
		a, err := m.load64(ea)
		if err != nil {
			return err
		}
		b := m.gpr[u.r1]
		r := a + b
		m.setFlagsAdd(a, b, r, asm.W64)
		if err := m.store64(ea, r); err != nil {
			return err
		}
	case uAddIM:
		ea := m.uea(&u.mem)
		a, err := m.load64(ea)
		if err != nil {
			return err
		}
		r := a + u.imm
		m.setFlagsAdd(a, u.imm, r, asm.W64)
		if err := m.store64(ea, r); err != nil {
			return err
		}

	case uSubRR:
		a, b := m.gpr[u.r2], m.gpr[u.r1]
		m.setFlagsSub(a, b, asm.W64)
		m.gpr[u.r2] = a - b
	case uSubIR:
		a := m.gpr[u.r2]
		m.setFlagsSub(a, u.imm, asm.W64)
		m.gpr[u.r2] = a - u.imm
	case uSubMR:
		b, err := m.load64(m.uea(&u.mem))
		if err != nil {
			return err
		}
		a := m.gpr[u.r2]
		m.setFlagsSub(a, b, asm.W64)
		m.gpr[u.r2] = a - b
	case uSubRM:
		ea := m.uea(&u.mem)
		a, err := m.load64(ea)
		if err != nil {
			return err
		}
		b := m.gpr[u.r1]
		m.setFlagsSub(a, b, asm.W64)
		if err := m.store64(ea, a-b); err != nil {
			return err
		}
	case uSubIM:
		ea := m.uea(&u.mem)
		a, err := m.load64(ea)
		if err != nil {
			return err
		}
		m.setFlagsSub(a, u.imm, asm.W64)
		if err := m.store64(ea, a-u.imm); err != nil {
			return err
		}

	case uImulRR:
		r := uint64(int64(m.gpr[u.r2]) * int64(m.gpr[u.r1]))
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uImulIR:
		r := uint64(int64(m.gpr[u.r2]) * int64(u.imm))
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uImulMR:
		b, err := m.load64(m.uea(&u.mem))
		if err != nil {
			return err
		}
		r := uint64(int64(m.gpr[u.r2]) * int64(b))
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uImulRM:
		ea := m.uea(&u.mem)
		a, err := m.load64(ea)
		if err != nil {
			return err
		}
		r := uint64(int64(a) * int64(m.gpr[u.r1]))
		m.setFlagsLogic(r, asm.W64)
		if err := m.store64(ea, r); err != nil {
			return err
		}
	case uImulIM:
		ea := m.uea(&u.mem)
		a, err := m.load64(ea)
		if err != nil {
			return err
		}
		r := uint64(int64(a) * int64(u.imm))
		m.setFlagsLogic(r, asm.W64)
		if err := m.store64(ea, r); err != nil {
			return err
		}

	case uAndRR:
		r := m.gpr[u.r2] & m.gpr[u.r1]
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uAndIR:
		r := m.gpr[u.r2] & u.imm
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uAndMR:
		b, err := m.load64(m.uea(&u.mem))
		if err != nil {
			return err
		}
		r := m.gpr[u.r2] & b
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uAndRM:
		ea := m.uea(&u.mem)
		a, err := m.load64(ea)
		if err != nil {
			return err
		}
		r := a & m.gpr[u.r1]
		m.setFlagsLogic(r, asm.W64)
		if err := m.store64(ea, r); err != nil {
			return err
		}
	case uAndIM:
		ea := m.uea(&u.mem)
		a, err := m.load64(ea)
		if err != nil {
			return err
		}
		r := a & u.imm
		m.setFlagsLogic(r, asm.W64)
		if err := m.store64(ea, r); err != nil {
			return err
		}

	case uOrRR:
		r := m.gpr[u.r2] | m.gpr[u.r1]
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uOrIR:
		r := m.gpr[u.r2] | u.imm
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uOrMR:
		b, err := m.load64(m.uea(&u.mem))
		if err != nil {
			return err
		}
		r := m.gpr[u.r2] | b
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uOrRM:
		ea := m.uea(&u.mem)
		a, err := m.load64(ea)
		if err != nil {
			return err
		}
		r := a | m.gpr[u.r1]
		m.setFlagsLogic(r, asm.W64)
		if err := m.store64(ea, r); err != nil {
			return err
		}
	case uOrIM:
		ea := m.uea(&u.mem)
		a, err := m.load64(ea)
		if err != nil {
			return err
		}
		r := a | u.imm
		m.setFlagsLogic(r, asm.W64)
		if err := m.store64(ea, r); err != nil {
			return err
		}

	case uXorRR:
		r := m.gpr[u.r2] ^ m.gpr[u.r1]
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uXorIR:
		r := m.gpr[u.r2] ^ u.imm
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uXorMR:
		b, err := m.load64(m.uea(&u.mem))
		if err != nil {
			return err
		}
		r := m.gpr[u.r2] ^ b
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uXorRM:
		ea := m.uea(&u.mem)
		a, err := m.load64(ea)
		if err != nil {
			return err
		}
		r := a ^ m.gpr[u.r1]
		m.setFlagsLogic(r, asm.W64)
		if err := m.store64(ea, r); err != nil {
			return err
		}
	case uXorIM:
		ea := m.uea(&u.mem)
		a, err := m.load64(ea)
		if err != nil {
			return err
		}
		r := a ^ u.imm
		m.setFlagsLogic(r, asm.W64)
		if err := m.store64(ea, r); err != nil {
			return err
		}

	case uShlRR:
		r := m.gpr[u.r2] << (m.gpr[u.r1] & 63)
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uShlIR:
		r := m.gpr[u.r2] << (u.imm & 63)
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uShlMR:
		b, err := m.load64(m.uea(&u.mem))
		if err != nil {
			return err
		}
		r := m.gpr[u.r2] << (b & 63)
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uShlRM:
		ea := m.uea(&u.mem)
		a, err := m.load64(ea)
		if err != nil {
			return err
		}
		r := a << (m.gpr[u.r1] & 63)
		m.setFlagsLogic(r, asm.W64)
		if err := m.store64(ea, r); err != nil {
			return err
		}
	case uShlIM:
		ea := m.uea(&u.mem)
		a, err := m.load64(ea)
		if err != nil {
			return err
		}
		r := a << (u.imm & 63)
		m.setFlagsLogic(r, asm.W64)
		if err := m.store64(ea, r); err != nil {
			return err
		}

	case uShrRR:
		r := m.gpr[u.r2] >> (m.gpr[u.r1] & 63)
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uShrIR:
		r := m.gpr[u.r2] >> (u.imm & 63)
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uShrMR:
		b, err := m.load64(m.uea(&u.mem))
		if err != nil {
			return err
		}
		r := m.gpr[u.r2] >> (b & 63)
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uShrRM:
		ea := m.uea(&u.mem)
		a, err := m.load64(ea)
		if err != nil {
			return err
		}
		r := a >> (m.gpr[u.r1] & 63)
		m.setFlagsLogic(r, asm.W64)
		if err := m.store64(ea, r); err != nil {
			return err
		}
	case uShrIM:
		ea := m.uea(&u.mem)
		a, err := m.load64(ea)
		if err != nil {
			return err
		}
		r := a >> (u.imm & 63)
		m.setFlagsLogic(r, asm.W64)
		if err := m.store64(ea, r); err != nil {
			return err
		}

	case uSarRR:
		r := uint64(int64(m.gpr[u.r2]) >> (m.gpr[u.r1] & 63))
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uSarIR:
		r := uint64(int64(m.gpr[u.r2]) >> (u.imm & 63))
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uSarMR:
		b, err := m.load64(m.uea(&u.mem))
		if err != nil {
			return err
		}
		r := uint64(int64(m.gpr[u.r2]) >> (b & 63))
		m.setFlagsLogic(r, asm.W64)
		m.gpr[u.r2] = r
	case uSarRM:
		ea := m.uea(&u.mem)
		a, err := m.load64(ea)
		if err != nil {
			return err
		}
		r := uint64(int64(a) >> (m.gpr[u.r1] & 63))
		m.setFlagsLogic(r, asm.W64)
		if err := m.store64(ea, r); err != nil {
			return err
		}
	case uSarIM:
		ea := m.uea(&u.mem)
		a, err := m.load64(ea)
		if err != nil {
			return err
		}
		r := uint64(int64(a) >> (u.imm & 63))
		m.setFlagsLogic(r, asm.W64)
		if err := m.store64(ea, r); err != nil {
			return err
		}

	// 8-bit xor: partial register write, byte-masked flags.
	case uXorbRR:
		r := m.gpr[u.r2] ^ m.gpr[u.r1]
		m.setFlagsLogic(r, asm.W8)
		m.gpr[u.r2] = m.gpr[u.r2]&^uint64(0xff) | r&0xff
	case uXorbIR:
		r := m.gpr[u.r2] ^ u.imm
		m.setFlagsLogic(r, asm.W8)
		m.gpr[u.r2] = m.gpr[u.r2]&^uint64(0xff) | r&0xff
	case uXorbMR:
		b, err := m.load8(m.uea(&u.mem))
		if err != nil {
			return err
		}
		r := m.gpr[u.r2] ^ b
		m.setFlagsLogic(r, asm.W8)
		m.gpr[u.r2] = m.gpr[u.r2]&^uint64(0xff) | r&0xff
	case uXorbRM:
		ea := m.uea(&u.mem)
		a, err := m.load8(ea)
		if err != nil {
			return err
		}
		r := a ^ m.gpr[u.r1]
		m.setFlagsLogic(r, asm.W8)
		if err := m.store8(ea, r); err != nil {
			return err
		}
	case uXorbIM:
		ea := m.uea(&u.mem)
		a, err := m.load8(ea)
		if err != nil {
			return err
		}
		r := a ^ u.imm
		m.setFlagsLogic(r, asm.W8)
		if err := m.store8(ea, r); err != nil {
			return err
		}

	case uNegR:
		v := m.gpr[u.r1]
		m.gpr[u.r1] = -v
		m.setFlagsSub(0, v, asm.W64)
	case uNegM:
		ea := m.uea(&u.mem)
		v, err := m.load64(ea)
		if err != nil {
			return err
		}
		if err := m.store64(ea, -v); err != nil {
			return err
		}
		m.setFlagsSub(0, v, asm.W64)

	case uCqto:
		if int64(m.gpr[asm.RAX]) < 0 {
			m.gpr[asm.RDX] = ^uint64(0)
		} else {
			m.gpr[asm.RDX] = 0
		}
	case uIdivR:
		if err := m.idiv(m.gpr[u.r1]); err != nil {
			return err
		}
	case uIdivM:
		div, err := m.load64(m.uea(&u.mem))
		if err != nil {
			return err
		}
		if err := m.idiv(div); err != nil {
			return err
		}

	// Compares: flags only. setFlags* mask to the width internally.
	case uCmpRR64:
		m.setFlagsSub(m.gpr[u.r2], m.gpr[u.r1], asm.W64)
	case uCmpIR64:
		m.setFlagsSub(m.gpr[u.r2], u.imm, asm.W64)
	case uCmpMR64:
		b, err := m.load64(m.uea(&u.mem))
		if err != nil {
			return err
		}
		m.setFlagsSub(m.gpr[u.r2], b, asm.W64)
	case uCmpRM64:
		a, err := m.load64(m.uea(&u.mem))
		if err != nil {
			return err
		}
		m.setFlagsSub(a, m.gpr[u.r1], asm.W64)
	case uCmpIM64:
		a, err := m.load64(m.uea(&u.mem))
		if err != nil {
			return err
		}
		m.setFlagsSub(a, u.imm, asm.W64)
	case uCmpRR32:
		m.setFlagsSub(m.gpr[u.r2], m.gpr[u.r1], asm.W32)
	case uCmpIR32:
		m.setFlagsSub(m.gpr[u.r2], u.imm, asm.W32)
	case uCmpMR32:
		b, err := m.load32(m.uea(&u.mem))
		if err != nil {
			return err
		}
		m.setFlagsSub(m.gpr[u.r2], b, asm.W32)
	case uCmpRM32:
		a, err := m.load32(m.uea(&u.mem))
		if err != nil {
			return err
		}
		m.setFlagsSub(a, m.gpr[u.r1], asm.W32)
	case uCmpIM32:
		a, err := m.load32(m.uea(&u.mem))
		if err != nil {
			return err
		}
		m.setFlagsSub(a, u.imm, asm.W32)
	case uCmpRR8:
		m.setFlagsSub(m.gpr[u.r2], m.gpr[u.r1], asm.W8)
	case uCmpIR8:
		m.setFlagsSub(m.gpr[u.r2], u.imm, asm.W8)
	case uCmpMR8:
		b, err := m.load8(m.uea(&u.mem))
		if err != nil {
			return err
		}
		m.setFlagsSub(m.gpr[u.r2], b, asm.W8)
	case uCmpRM8:
		a, err := m.load8(m.uea(&u.mem))
		if err != nil {
			return err
		}
		m.setFlagsSub(a, m.gpr[u.r1], asm.W8)
	case uCmpIM8:
		a, err := m.load8(m.uea(&u.mem))
		if err != nil {
			return err
		}
		m.setFlagsSub(a, u.imm, asm.W8)
	case uTestRR:
		m.setFlagsLogic(m.gpr[u.r1]&m.gpr[u.r2], asm.W64)
	case uTestIR:
		m.setFlagsLogic(u.imm&m.gpr[u.r2], asm.W64)

	// Control flow: targets resolved to instruction indices at decode.
	case uJmp:
		m.flushSpan()
		m.pc = int(u.target)
	case uJcc:
		taken, err := m.cond(u.cc)
		if err != nil {
			return err
		}
		m.flushSpan()
		if taken {
			m.scalarSpan += u.cost.takenExtra
			m.pc = int(u.target)
		}
	case uCall:
		if err := m.push(uint64(pc + 1)); err != nil {
			return err
		}
		m.flushSpan()
		m.pc = int(u.target)
	case uRet:
		v, err := m.pop()
		if err != nil {
			return err
		}
		if v >= uint64(len(m.insts)) {
			return crashf("ret to invalid address %d", v)
		}
		m.flushSpan()
		m.pc = int(v)

	case uSetccR:
		taken, err := m.cond(u.cc)
		if err != nil {
			return err
		}
		var v uint64
		if taken {
			v = 1
		}
		m.gpr[u.r2] = m.gpr[u.r2]&^uint64(0xff) | v

	case uPushR:
		if err := m.push(m.gpr[u.r1]); err != nil {
			return err
		}
	case uPushI:
		if err := m.push(u.imm); err != nil {
			return err
		}
	case uPushM:
		v, err := m.load64(m.uea(&u.mem))
		if err != nil {
			return err
		}
		if err := m.push(v); err != nil {
			return err
		}
	case uPopR:
		v, err := m.pop()
		if err != nil {
			return err
		}
		m.gpr[u.r2] = v

	// SIMD (the FERRUM check path).
	case uPinsrqR:
		m.x[u.x2][u.lane] = m.gpr[u.r1]
	case uPinsrqM:
		v, err := m.load64(m.uea(&u.mem))
		if err != nil {
			return err
		}
		m.x[u.x2][u.lane] = v
	case uVinserti128:
		// Source lanes are read out before the (possibly aliasing)
		// destination is written; copying base into the destination first
		// is skipped when they are the same register.
		s0, s1 := m.x[u.x1][0], m.x[u.x1][1]
		if u.x3 != u.x2 {
			m.x[u.x3] = m.x[u.x2]
		}
		m.x[u.x3][u.lane*2] = s0
		m.x[u.x3][u.lane*2+1] = s1
	case uVinserti644:
		var s [4]uint64
		copy(s[:], m.x[u.x1][0:4])
		if u.x3 != u.x2 {
			m.x[u.x3] = m.x[u.x2]
		}
		copy(m.x[u.x3][u.lane*4:u.lane*4+4], s[:])
	case uVpxor:
		// Element-wise with matching indices, so writing the destination
		// in place is safe even when it aliases a source; lanes above
		// u.lanes keep their previous contents, as before.
		a, b, d := &m.x[u.x1], &m.x[u.x2], &m.x[u.x3]
		for i := 0; i < int(u.lanes); i++ {
			d[i] = a[i] ^ b[i]
		}
	case uVptest:
		a, b := &m.x[u.x1], &m.x[u.x2]
		var andAcc, andnAcc uint64
		for i := 0; i < int(u.lanes); i++ {
			andAcc |= a[i] & b[i]
			andnAcc |= ^a[i] & b[i]
		}
		m.flags[asm.FlagZF] = andAcc == 0
		m.flags[asm.FlagCF] = andnAcc == 0
		m.flags[asm.FlagSF] = false
		m.flags[asm.FlagOF] = false

	case uOutR:
		m.output = append(m.output, m.gpr[u.r1])

	case uHalt:
		m.flushSpan()
		return errHalt
	case uDetect:
		m.flushSpan()
		return errDetect
	}
	return nil
}

// uea computes the effective address of a decoded memory reference.
// Branch-free: gpr[RNone] is invariantly zero (reset clears it and no
// instruction or fault can write it), and decode normalised Scale.
func (m *Machine) uea(mm *asm.Mem) uint64 {
	return uint64(mm.Disp) + m.gpr[mm.Base] + m.gpr[mm.Index]*uint64(mm.Scale)
}

// Width-specialised memory accessors. An access crashes when it touches the
// guard region or runs past the top of memory (or wraps the address space);
// the check is folded into a single unsigned comparison: ea-GuardSize
// wraps for ea < GuardSize and exceeds len(mem)-GuardSize-width for any
// access crossing the top of memory (len(mem) >= 2*GuardSize is enforced at
// construction, so the right-hand side never underflows).
func (m *Machine) load64(ea uint64) (uint64, error) {
	if ea-GuardSize > uint64(len(m.mem.B))-(GuardSize+8) {
		return 0, crashf("load of %d bytes at %#x out of range", 8, ea)
	}
	return binary.LittleEndian.Uint64(m.mem.B[ea:]), nil
}

func (m *Machine) load32(ea uint64) (uint64, error) {
	if ea-GuardSize > uint64(len(m.mem.B))-(GuardSize+4) {
		return 0, crashf("load of %d bytes at %#x out of range", 4, ea)
	}
	return uint64(binary.LittleEndian.Uint32(m.mem.B[ea:])), nil
}

func (m *Machine) load8(ea uint64) (uint64, error) {
	if ea-GuardSize > uint64(len(m.mem.B))-(GuardSize+1) {
		return 0, crashf("load of %d bytes at %#x out of range", 1, ea)
	}
	return uint64(m.mem.B[ea]), nil
}

func (m *Machine) store64(ea uint64, v uint64) error {
	if ea-GuardSize > uint64(len(m.mem.B))-(GuardSize+8) {
		return crashf("store of %d bytes at %#x out of range", 8, ea)
	}
	m.mem.MarkDirty(ea, 8)
	binary.LittleEndian.PutUint64(m.mem.B[ea:], v)
	return nil
}

func (m *Machine) store32(ea uint64, v uint64) error {
	if ea-GuardSize > uint64(len(m.mem.B))-(GuardSize+4) {
		return crashf("store of %d bytes at %#x out of range", 4, ea)
	}
	m.mem.MarkDirty(ea, 4)
	binary.LittleEndian.PutUint32(m.mem.B[ea:], uint32(v))
	return nil
}

func (m *Machine) store8(ea uint64, v uint64) error {
	if ea-GuardSize > uint64(len(m.mem.B))-(GuardSize+1) {
		return crashf("store of %d bytes at %#x out of range", 1, ea)
	}
	m.mem.MarkDirty(ea, 1)
	m.mem.B[ea] = byte(v)
	return nil
}

// idiv implements idivq: signed divide of rdx:rax by div, quotient to rax,
// remainder to rdx, with the hardware #DE conditions as crashes.
func (m *Machine) idiv(div uint64) error {
	if div == 0 {
		return crashf("divide error")
	}
	lo, hi := m.gpr[asm.RAX], m.gpr[asm.RDX]
	wantHi := uint64(0)
	if int64(lo) < 0 {
		wantHi = ^uint64(0)
	}
	if hi != wantHi {
		// The 128-bit quotient does not fit 64 bits: hardware #DE.
		return crashf("divide overflow")
	}
	a, b := int64(lo), int64(div)
	if a == -1<<63 && b == -1 {
		return crashf("divide overflow")
	}
	m.gpr[asm.RAX] = uint64(a / b)
	m.gpr[asm.RDX] = uint64(a % b)
	return nil
}

func widthMask(w asm.Width) uint64 {
	if w == asm.W64 {
		return ^uint64(0)
	}
	return 1<<(w.Bits()) - 1
}

func signBit(v uint64, w asm.Width) bool {
	return v>>(w.Bits()-1)&1 == 1
}

func (m *Machine) setFlagsSub(a, b uint64, w asm.Width) {
	mask := widthMask(w)
	a, b = a&mask, b&mask
	r := (a - b) & mask
	m.flags[asm.FlagZF] = r == 0
	m.flags[asm.FlagSF] = signBit(r, w)
	m.flags[asm.FlagCF] = a < b
	m.flags[asm.FlagOF] = signBit((a^b)&(a^r), w)
}

func (m *Machine) setFlagsAdd(a, b, r uint64, w asm.Width) {
	mask := widthMask(w)
	a, b, r = a&mask, b&mask, r&mask
	m.flags[asm.FlagZF] = r == 0
	m.flags[asm.FlagSF] = signBit(r, w)
	m.flags[asm.FlagCF] = r < a
	m.flags[asm.FlagOF] = signBit((a^r)&(b^r), w)
}

func (m *Machine) setFlagsLogic(r uint64, w asm.Width) {
	mask := widthMask(w)
	r &= mask
	m.flags[asm.FlagZF] = r == 0
	m.flags[asm.FlagSF] = signBit(r, w)
	m.flags[asm.FlagCF] = false
	m.flags[asm.FlagOF] = false
}

// cond evaluates a condition code against the current flags. An unknown
// condition code is a crash, not a silent not-taken: a corrupted or
// hand-built instruction must not quietly fall through.
func (m *Machine) cond(c asm.CC) (bool, error) {
	zf := m.flags[asm.FlagZF]
	sf := m.flags[asm.FlagSF]
	of := m.flags[asm.FlagOF]
	switch c {
	case asm.CCE:
		return zf, nil
	case asm.CCNE:
		return !zf, nil
	case asm.CCL:
		return sf != of, nil
	case asm.CCLE:
		return zf || sf != of, nil
	case asm.CCG:
		return !zf && sf == of, nil
	case asm.CCGE:
		return sf == of, nil
	}
	return false, crashf("unknown condition code %d", c)
}

func (m *Machine) flushSpan() {
	if m.vectorSpan > m.scalarSpan {
		m.cycles += m.vectorSpan
	} else {
		m.cycles += m.scalarSpan
	}
	m.scalarSpan, m.vectorSpan = 0, 0
}

// cyclesNow reports the effective cycle clock mid-run: flushed cycles plus
// the dual-issue span accumulated since the last control transfer. This is
// exactly what m.cycles would read after the next flushSpan if no further
// work issued.
func (m *Machine) cyclesNow() float64 {
	if m.vectorSpan > m.scalarSpan {
		return m.cycles + m.vectorSpan
	}
	return m.cycles + m.scalarSpan
}

func (m *Machine) push(v uint64) error {
	sp := m.gpr[asm.RSP] - 8
	if err := m.store64(sp, v); err != nil {
		return fmt.Errorf("push: %w", err)
	}
	m.gpr[asm.RSP] = sp
	return nil
}

func (m *Machine) pop() (uint64, error) {
	sp := m.gpr[asm.RSP]
	v, err := m.load64(sp)
	if err != nil {
		return 0, fmt.Errorf("pop: %w", err)
	}
	m.gpr[asm.RSP] = sp + 8
	return v, nil
}
