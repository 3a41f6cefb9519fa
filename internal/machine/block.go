package machine

import (
	"fmt"

	"ferrum/internal/asm"
)

// Basic-block threaded dispatch.
//
// The legacy Run loop pays a bounds check, a step-budget check and a
// fault-site comparison on every dynamic instruction. Block dispatch hoists
// all three to block entry: a block former (buildBlocks) partitions the
// decoded uop array into basic blocks at load time, and runBlocks executes
// a whole block after one bounds check, one watchdog check and one
// fault-proximity check. Blocks whose execution could cross the step budget
// or contain the planned fault site fall back to runBlockSlow, which
// replicates the legacy per-instruction semantics bit for bit — so Result
// (outcome, cycles, counters, crash messages) is identical either way.
//
// All tables are indexed by pre-fusion instruction position: block
// formation and fusion never renumber insts/uops, so fault-site indexing,
// DestBits, snapshots and journal identity are untouched.

// buildBlocks computes, for every instruction index, the exclusive end of
// its enclosing basic block (blockEnd) and the number of fault-injection
// sites from that index to the block end (siteSuffix). Leaders are the
// program start, every label (any label is a potential slow-path jump
// target), every resolved jump/call target, and the fall-through after any
// instruction that can transfer control — including uSlow, whose generic
// interpreter may perform arbitrary control flow. siteSuffix is defined for
// every index, not just leaders, so a run resumed mid-block (snapshot pcs
// are per-instruction) still gets an exact fault-proximity bound.
func (m *Machine) buildBlocks() {
	n := len(m.uops)
	m.blockEnd = make([]int32, n)
	m.siteSuffix = make([]int32, n)
	if n == 0 {
		return
	}
	leader := make([]bool, n)
	leader[0] = true
	mark := func(i int) {
		if i >= 0 && i < n {
			leader[i] = true
		}
	}
	mark(m.start)
	mark(m.entry)
	for _, idx := range m.labels {
		mark(idx)
	}
	for i := range m.uops {
		switch m.uops[i].code {
		case uJmp, uJcc, uCall:
			mark(int(m.uops[i].target))
			mark(i + 1)
		case uRet, uHalt, uDetect, uSlow:
			mark(i + 1)
		}
	}
	next := int32(n)
	for i := n - 1; i >= 0; i-- {
		m.blockEnd[i] = next
		if leader[i] {
			next = int32(i)
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := int32(0)
		if int(m.blockEnd[i]) > i+1 {
			s = m.siteSuffix[i+1]
		}
		if m.uops[i].destKind != asm.DestNone {
			s++
		}
		m.siteSuffix[i] = s
	}
}

// runBlocks is the block-dispatch execution loop. The caller has already
// established the run preconditions (no per-instruction observers, no
// checkpoint schedule). It returns the terminal outcome and crash message;
// runDispatched flushes spans and assembles the Result.
func (m *Machine) runBlocks(fault *Fault, maxSteps, stopAt uint64) (Outcome, string) {
	// The dispatch tables are loop-invariant; locals keep their headers in
	// registers instead of reloading them through m on every instruction.
	uops := m.uops
	blockEnd := m.blockEnd
	fuseAt := m.fuseAt
	fuops := m.fuops
	fuseHits := m.fuseHits
	stop := m.stopSite(stopAt)
	for {
		pc := m.pc
		if pc < 0 || pc >= len(uops) {
			return OutcomeCrash, fmt.Sprintf("pc %d out of range", pc)
		}
		m.nBlocks++
		end := int(blockEnd[pc])
		// Fall back to exact per-instruction execution when the step
		// budget could expire inside the block (legacy checks the budget
		// before every instruction), the planned fault site could land
		// on one of the block's remaining destinations, or the next stop
		// site (the StopAtSites boundary or a golden checkpoint) falls
		// within the block — fused uops retire several sites per step, so
		// the fast path could blow straight past it.
		if m.dyn+uint64(end-pc) > maxSteps ||
			(fault != nil && !m.injected && fault.Site < m.sites+uint64(m.siteSuffix[pc])) ||
			stop <= m.sites+uint64(m.siteSuffix[pc]) {
			if out, msg, done := m.runBlockSlow(fault, maxSteps, stopAt, pc, end); done {
				return out, msg
			}
			// The slow block may have applied the fault or passed a
			// golden checkpoint.
			stop = m.stopSite(stopAt)
			continue
		}
		i := pc
		for i < end {
			var next nextAction
			var err error
			if fx := fuseAt[i]; fx >= 0 {
				fuseHits[fx]++
				next, err = m.stepFused(&fuops[fx], i)
			} else {
				u := &uops[i]
				m.dyn++
				next, err = m.step(u, i)
				// A crashed instruction does not retire its destination, so
				// its site is not counted (matching the legacy loop, which
				// breaks before the site bookkeeping on error).
				if err == nil && u.destKind != asm.DestNone {
					m.sites++
				}
			}
			if err != nil {
				return OutcomeCrash, err.Error()
			}
			switch next {
			case nextHalt:
				return OutcomeOK, ""
			case nextDetect:
				return OutcomeDetected, ""
			}
			// A backward transfer can re-enter this same block (a
			// one-block self loop): return to the outer loop so the
			// watchdog and fault-proximity checks run per block entry.
			// Forward targets are always leaders, so any in-range forward
			// pc is the sequential successor.
			if m.pc <= i || m.pc >= end {
				break
			}
			i = m.pc
		}
	}
}

// runBlockSlow executes one basic block with the legacy per-instruction
// checks: step budget before each instruction, fault application on the
// matching site, per-site counting, the StopAtSites boundary and the
// golden convergence compare. Fused uops are ignored here — every
// position executes its original single uop, which is what makes the slow
// block bit-identical to the pre-fusion interpreter. It reports done=false
// when control left the block with the run still live.
func (m *Machine) runBlockSlow(fault *Fault, maxSteps, stopAt uint64, pc, end int) (Outcome, string, bool) {
	i := pc
	for i < end {
		if m.dyn >= maxSteps {
			return OutcomeHang, "", true
		}
		u := &m.uops[i]
		m.pc = i
		m.dyn++
		next, err := m.step(u, i)
		if err != nil {
			return OutcomeCrash, err.Error(), true
		}
		if u.destKind != asm.DestNone {
			if fault != nil && m.sites == fault.Site {
				dest := m.insts[i].dest
				m.applyFault(dest, fault.Bit)
				for _, b := range fault.Extra {
					m.applyFault(dest, b)
				}
				m.injected = true
				m.injCycles = m.cyclesNow()
				m.injDyn = m.dyn
			}
			m.sites++
			if stopAt > 0 && m.sites == stopAt {
				m.boundary = m.Snapshot()
				return OutcomeBoundary, "", true
			}
			if m.checkConverged() {
				return outcomeConverged, "", true
			}
		}
		switch next {
		case nextHalt:
			return OutcomeOK, "", true
		case nextDetect:
			return OutcomeDetected, "", true
		}
		if m.pc <= i || m.pc >= end {
			return 0, "", false
		}
		i = m.pc
	}
	return 0, "", false
}

// DispatchStats reports this machine's lifetime block-dispatch counters:
// basic blocks entered and fused superinstructions executed. The fused
// count is the sum of the per-fuop hit counters, which the dispatch loop
// maintains anyway — the hot path carries no separate global counter.
func (m *Machine) DispatchStats() (blocksEntered, fusedUops uint64) {
	for _, h := range m.fuseHits {
		fusedUops += h
	}
	return m.nBlocks, fusedUops
}
