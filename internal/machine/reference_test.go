package machine

import (
	"cmp"
	"encoding/binary"
	"fmt"

	"ferrum/internal/asm"
)

// nextAction is the generic interpreter's control result: whether the
// instruction it executed continues the run, halts it or detects.
type nextAction uint8

const (
	nextContinue nextAction = iota
	nextHalt
	nextDetect
)

// runReference is the per-instruction reference engine the block loop is
// tested against: one loop that checks the pc, the step budget, the fork
// and fault site, the checkpoint schedule and StopAtSites before or after
// every instruction, and charges every observer as the instruction
// executes. It ignores the block tables and the decoded uops: each
// instruction is charged its cost and executed by the generic interpreter
// (stepSlow), so it is the pre-decode engine. It does not honour
// RunOpts.Golden.
func (m *Machine) runReference(opts RunOpts) Result {
	maxSteps, err := m.begin(&opts)
	if err != nil {
		return Result{Outcome: OutcomeCrash, CrashMsg: err.Error()}
	}
	labels := refLabels(m)
	outcome := OutcomeHang
	var crashMsg string
	var siteStatics []int32
	if n := cmp.Or(min(opts.ExpectSites, maxSteps), m.lastSites); opts.RecordSiteStatics && n > 0 {
		siteStatics = make([]int32, 0, n)
	}
	var fnSpans []FnSpan
	var curFn string
	var spanStart uint64
	var prof *profile
	if opts.Profile {
		prof = &profile{}
	}
	var trace *traceRing
	if opts.Trace > 0 {
		trace = newTraceRing(opts.Trace)
	}
loop:
	for m.dyn < maxSteps {
		if m.pc < 0 || m.pc >= len(m.uops) {
			outcome, crashMsg = OutcomeCrash, fmt.Sprintf("pc %d out of range", m.pc)
			break
		}
		pc := m.pc
		fi := &m.insts[pc]
		m.dyn++
		if opts.RecordFnSpans {
			if fn := fi.fn; fn != curFn {
				if curFn != "" {
					fnSpans = append(fnSpans, FnSpan{Fn: curFn, Start: spanStart, End: m.sites})
				}
				curFn, spanStart = fn, m.sites
			}
		}
		if prof != nil {
			prof.record(fi)
		}
		if trace != nil {
			trace.record(fi)
		}
		m.scalarSpan += fi.cost.scalar
		m.vectorSpan += fi.cost.vector
		next, err := m.stepSlow(fi, labels)
		if err != nil {
			outcome, crashMsg = OutcomeCrash, err.Error()
			break
		}
		if fi.dest.Kind != asm.DestNone {
			if opts.RecordSiteStatics {
				siteStatics = append(siteStatics, int32(pc))
			}
			m.sites++
			if opts.Fault != nil && m.sites-1 == opts.Fault.Site {
				if opts.Fork != nil {
					m.fork(opts.Fork)
				}
				m.applyFault(fi.dest, opts.Fault.Bit)
				for _, b := range opts.Fault.Extra {
					m.applyFault(fi.dest, b)
				}
				m.injected = true
				m.injCycles = m.cyclesNow()
				m.injDyn = m.dyn
			}
			if c := opts.Checkpoints; c != nil && m.sites%c.Every == 0 {
				m.checkpoint(c)
			}
			if opts.StopAtSites > 0 && m.sites == opts.StopAtSites {
				m.boundary = m.Snapshot()
				outcome = OutcomeBoundary
				break loop
			}
		}
		switch next {
		case nextHalt:
			outcome = OutcomeOK
			break loop
		case nextDetect:
			outcome = OutcomeDetected
			break loop
		}
	}
	if opts.RecordFnSpans && curFn != "" {
		fnSpans = append(fnSpans, FnSpan{Fn: curFn, Start: spanStart, End: m.sites})
	}
	res := m.finish(outcome, crashMsg)
	res.SiteStatics, res.FnSpans = siteStatics, fnSpans
	res.Profile, res.Trace = prof.export(), trace.dump()
	return res
}

// refLabels rebuilds the program's label map — function names and
// instruction labels to flat indices — for the generic interpreter's
// run-time jump resolution.
func refLabels(m *Machine) map[string]int {
	labels := make(map[string]int)
	for i := range m.insts {
		fi := &m.insts[i]
		if fi.idx == 0 {
			labels[fi.fn] = i
		}
		for _, l := range fi.in.Labels {
			labels[l] = i
		}
	}
	return labels
}

// stepSlow is the generic interpreter: full per-operand kind/width
// dispatch straight off the asm instruction, with jump targets looked up in
// labels at run time. It is the pre-decode engine, kept as the oracle the
// fused uop dispatch is checked against. The caller has already charged
// the instruction's cost spans.
func (m *Machine) stepSlow(fi *flatInst, labels map[string]int) (nextAction, error) {
	in := &fi.in
	pcNext := m.pc + 1

	switch in.Op {
	case asm.NOP:

	case asm.MOVQ:
		if err := m.execMov(in, asm.W64); err != nil {
			return 0, err
		}
	case asm.MOVL:
		if err := m.execMov(in, asm.W32); err != nil {
			return 0, err
		}
	case asm.MOVB:
		if err := m.execMov(in, asm.W8); err != nil {
			return 0, err
		}

	case asm.MOVSLQ:
		v, err := m.readOperand(in.A[0], asm.W32)
		if err != nil {
			return 0, err
		}
		m.writeGPR(in.A[1].Reg, asm.W64, uint64(int64(int32(uint32(v)))))
	case asm.MOVZBQ:
		v, err := m.readOperand(in.A[0], asm.W8)
		if err != nil {
			return 0, err
		}
		m.writeGPR(in.A[1].Reg, asm.W64, v&0xff)

	case asm.LEA:
		m.writeGPR(in.A[1].Reg, asm.W64, m.ea(in.A[0].M))

	case asm.ADDQ, asm.SUBQ, asm.IMULQ, asm.ANDQ, asm.ORQ, asm.XORQ,
		asm.SHLQ, asm.SHRQ, asm.SARQ:
		if err := m.execALU(in, asm.W64); err != nil {
			return 0, err
		}
	case asm.XORB:
		if err := m.execALU(in, asm.W8); err != nil {
			return 0, err
		}
	case asm.NEGQ:
		v, err := m.readOperand(in.A[0], asm.W64)
		if err != nil {
			return 0, err
		}
		r := -v
		if err := m.writeOperand(in.A[0], asm.W64, r); err != nil {
			return 0, err
		}
		m.setFlagsSub(0, v, asm.W64)

	case asm.CQTO:
		if int64(m.gpr[asm.RAX]) < 0 {
			m.gpr[asm.RDX] = ^uint64(0)
		} else {
			m.gpr[asm.RDX] = 0
		}
	case asm.IDIVQ:
		div, err := m.readOperand(in.A[0], asm.W64)
		if err != nil {
			return 0, err
		}
		if err := m.idiv(div); err != nil {
			return 0, err
		}

	case asm.CMPQ:
		if err := m.execCmp(in, asm.W64); err != nil {
			return 0, err
		}
	case asm.CMPL:
		if err := m.execCmp(in, asm.W32); err != nil {
			return 0, err
		}
	case asm.CMPB:
		if err := m.execCmp(in, asm.W8); err != nil {
			return 0, err
		}
	case asm.TESTQ:
		a, err := m.readOperand(in.A[0], asm.W64)
		if err != nil {
			return 0, err
		}
		b, err := m.readOperand(in.A[1], asm.W64)
		if err != nil {
			return 0, err
		}
		m.setFlagsLogic(a&b, asm.W64)

	case asm.JMP:
		m.flushSpan()
		return nextContinue, m.jumpTo(labels, in.A[0].Label)
	case asm.JE, asm.JNE, asm.JL, asm.JLE, asm.JG, asm.JGE:
		taken, err := m.cond(asm.CondOf(in.Op))
		if err != nil {
			return 0, err
		}
		m.flushSpan()
		if taken {
			m.scalarSpan += fi.cost.takenExtra
			return nextContinue, m.jumpTo(labels, in.A[0].Label)
		}
		m.pc = pcNext
		return nextContinue, nil

	case asm.CALL:
		if err := m.push(uint64(pcNext)); err != nil {
			return 0, err
		}
		m.flushSpan()
		return nextContinue, m.jumpTo(labels, in.A[0].Label)
	case asm.RET:
		v, err := m.pop()
		if err != nil {
			return 0, err
		}
		if v >= uint64(len(m.insts)) {
			return 0, crashf("ret to invalid address %d", v)
		}
		m.flushSpan()
		m.pc = int(v)
		return nextContinue, nil

	case asm.SETE, asm.SETNE, asm.SETL, asm.SETLE, asm.SETG, asm.SETGE:
		taken, err := m.cond(asm.CondOf(in.Op))
		if err != nil {
			return 0, err
		}
		var v uint64
		if taken {
			v = 1
		}
		if err := m.writeOperand(in.A[0], asm.W8, v); err != nil {
			return 0, err
		}

	case asm.PUSHQ:
		v, err := m.readOperand(in.A[0], asm.W64)
		if err != nil {
			return 0, err
		}
		if err := m.push(v); err != nil {
			return 0, err
		}
	case asm.POPQ:
		v, err := m.pop()
		if err != nil {
			return 0, err
		}
		if err := m.writeOperand(in.A[0], asm.W64, v); err != nil {
			return 0, err
		}

	case asm.PINSRQ:
		lane := int(in.A[0].Imm)
		if lane < 0 || lane > 1 {
			return 0, crashf("pinsrq lane %d out of range", lane)
		}
		v, err := m.readOperand(in.A[1], asm.W64)
		if err != nil {
			return 0, err
		}
		m.x[in.A[2].X][lane] = v
	case asm.VINSERTI128:
		lane := int(in.A[0].Imm)
		if lane < 0 || lane > 1 {
			return 0, crashf("vinserti128 lane %d out of range", lane)
		}
		src := m.x[in.A[1].X]
		base := m.x[in.A[2].X]
		base[lane*2] = src[0]
		base[lane*2+1] = src[1]
		m.x[in.A[3].X] = base
	case asm.VINSERTI644:
		lane := int(in.A[0].Imm)
		if lane < 0 || lane > 1 {
			return 0, crashf("vinserti64x4 lane %d out of range", lane)
		}
		src := m.x[in.A[1].X]
		base := m.x[in.A[2].X]
		copy(base[lane*4:lane*4+4], src[0:4])
		m.x[in.A[3].X] = base
	case asm.VPXOR:
		lanes := in.A[2].XW.Lanes()
		a, b := m.x[in.A[0].X], m.x[in.A[1].X]
		r := m.x[in.A[2].X]
		for i := 0; i < lanes; i++ {
			r[i] = a[i] ^ b[i]
		}
		m.x[in.A[2].X] = r
	case asm.VPTEST:
		lanes := in.A[1].XW.Lanes()
		a, b := m.x[in.A[0].X], m.x[in.A[1].X]
		var andAcc, andnAcc uint64
		for i := 0; i < lanes; i++ {
			andAcc |= a[i] & b[i]
			andnAcc |= ^a[i] & b[i]
		}
		m.flags[asm.FlagZF] = andAcc == 0
		m.flags[asm.FlagCF] = andnAcc == 0
		m.flags[asm.FlagSF] = false
		m.flags[asm.FlagOF] = false

	case asm.OUT:
		v, err := m.readOperand(in.A[0], asm.W64)
		if err != nil {
			return 0, err
		}
		m.output = append(m.output, v)

	case asm.HALT:
		m.flushSpan()
		return nextHalt, nil
	case asm.DETECT:
		m.flushSpan()
		return nextDetect, nil

	default:
		return 0, crashf("unimplemented opcode %s", in.Op)
	}
	m.pc = pcNext
	return nextContinue, nil
}

func (m *Machine) execMov(in *asm.Inst, w asm.Width) error {
	src, dst := in.A[0], in.A[1]
	// GPR/XMM transfer forms of movq.
	if src.Kind == asm.KXReg || dst.Kind == asm.KXReg {
		switch {
		case dst.Kind == asm.KXReg && src.Kind == asm.KXReg:
			lane0 := m.x[src.X][0]
			m.x[dst.X][0] = lane0
			m.x[dst.X][1] = 0
		case dst.Kind == asm.KXReg:
			v, err := m.readOperand(src, asm.W64)
			if err != nil {
				return err
			}
			m.x[dst.X][0] = v
			m.x[dst.X][1] = 0
		default: // xmm -> gpr/mem
			return m.writeOperand(dst, asm.W64, m.x[src.X][0])
		}
		return nil
	}
	v, err := m.readOperand(src, w)
	if err != nil {
		return err
	}
	return m.writeOperand(dst, w, v)
}

func (m *Machine) execALU(in *asm.Inst, w asm.Width) error {
	src, dst := in.A[0], in.A[1]
	b, err := m.readOperand(src, w)
	if err != nil {
		return err
	}
	a, err := m.readOperand(dst, w)
	if err != nil {
		return err
	}
	var r uint64
	switch in.Op {
	case asm.ADDQ:
		r = a + b
		m.setFlagsAdd(a, b, r, w)
	case asm.SUBQ:
		r = a - b
		m.setFlagsSub(a, b, w)
	case asm.IMULQ:
		r = uint64(int64(a) * int64(b))
		m.setFlagsLogic(r, w) // CF/OF modelled as cleared; ZF/SF from result
	case asm.ANDQ:
		r = a & b
		m.setFlagsLogic(r, w)
	case asm.ORQ:
		r = a | b
		m.setFlagsLogic(r, w)
	case asm.XORQ, asm.XORB:
		r = a ^ b
		m.setFlagsLogic(r, w)
	case asm.SHLQ:
		r = a << (b & 63)
		m.setFlagsLogic(r, w)
	case asm.SHRQ:
		r = a >> (b & 63)
		m.setFlagsLogic(r, w)
	case asm.SARQ:
		r = uint64(int64(a) >> (b & 63))
		m.setFlagsLogic(r, w)
	default:
		return crashf("execALU: bad op %s", in.Op)
	}
	return m.writeOperand(dst, w, r)
}

func (m *Machine) execCmp(in *asm.Inst, w asm.Width) error {
	src, dst := in.A[0], in.A[1]
	b, err := m.readOperand(src, w)
	if err != nil {
		return err
	}
	a, err := m.readOperand(dst, w)
	if err != nil {
		return err
	}
	m.setFlagsSub(a, b, w)
	return nil
}

func (m *Machine) jumpTo(labels map[string]int, label string) error {
	idx, ok := labels[label]
	if !ok {
		return crashf("jump to undefined label %q", label)
	}
	m.pc = idx
	return nil
}

func (m *Machine) readReg(r asm.Reg, w asm.Width) uint64 {
	return m.gpr[r] & widthMask(w)
}

func (m *Machine) writeGPR(r asm.Reg, w asm.Width, v uint64) {
	switch w {
	case asm.W64:
		m.gpr[r] = v
	case asm.W32:
		m.gpr[r] = v & 0xffffffff // 32-bit writes zero-extend
	case asm.W16:
		m.gpr[r] = m.gpr[r]&^uint64(0xffff) | v&0xffff
	case asm.W8:
		m.gpr[r] = m.gpr[r]&^uint64(0xff) | v&0xff
	}
}

func (m *Machine) ea(mem asm.Mem) uint64 {
	ea := uint64(mem.Disp)
	if mem.Base != asm.RNone {
		ea += m.gpr[mem.Base]
	}
	if mem.Index != asm.RNone {
		scale := uint64(mem.Scale)
		if scale == 0 {
			scale = 1
		}
		ea += m.gpr[mem.Index] * scale
	}
	return ea
}

func (m *Machine) loadMem(ea uint64, w asm.Width) (uint64, error) {
	size := uint64(w)
	if ea < GuardSize || ea+size > uint64(len(m.mem.B)) || ea+size < ea {
		return 0, crashf("load of %d bytes at %#x out of range", size, ea)
	}
	switch w {
	case asm.W64:
		return binary.LittleEndian.Uint64(m.mem.B[ea:]), nil
	case asm.W32:
		return uint64(binary.LittleEndian.Uint32(m.mem.B[ea:])), nil
	case asm.W16:
		return uint64(binary.LittleEndian.Uint16(m.mem.B[ea:])), nil
	default:
		return uint64(m.mem.B[ea]), nil
	}
}

func (m *Machine) storeMem(ea uint64, w asm.Width, v uint64) error {
	size := uint64(w)
	if ea < GuardSize || ea+size > uint64(len(m.mem.B)) || ea+size < ea {
		return crashf("store of %d bytes at %#x out of range", size, ea)
	}
	m.mem.MarkDirty(ea, size)
	switch w {
	case asm.W64:
		binary.LittleEndian.PutUint64(m.mem.B[ea:], v)
	case asm.W32:
		binary.LittleEndian.PutUint32(m.mem.B[ea:], uint32(v))
	case asm.W16:
		binary.LittleEndian.PutUint16(m.mem.B[ea:], uint16(v))
	default:
		m.mem.B[ea] = byte(v)
	}
	return nil
}

func (m *Machine) readOperand(o asm.Operand, w asm.Width) (uint64, error) {
	switch o.Kind {
	case asm.KReg:
		return m.readReg(o.Reg, w), nil
	case asm.KImm:
		return uint64(o.Imm) & widthMask(w), nil
	case asm.KMem:
		return m.loadMem(m.ea(o.M), w)
	case asm.KXReg:
		return m.x[o.X][0], nil
	}
	return 0, crashf("unreadable operand %s", o)
}

func (m *Machine) writeOperand(o asm.Operand, w asm.Width, v uint64) error {
	switch o.Kind {
	case asm.KReg:
		m.writeGPR(o.Reg, w, v)
		return nil
	case asm.KMem:
		return m.storeMem(m.ea(o.M), w, v)
	}
	return crashf("unwritable operand %s", o)
}
