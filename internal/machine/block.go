package machine

import (
	"fmt"
	"slices"

	"ferrum/internal/asm"
)

// Basic-block threaded dispatch: the machine's only execution loop.
//
// A block former (buildBlocks) partitions the decoded uop array into basic
// blocks at load time, and runBlocks executes a whole block after one
// bounds check, one watchdog check and one stop-site check at block entry.
// Blocks whose execution could cross the step budget, contain the planned
// fault site, or reach the next stop site (StopAtSites, the next
// CheckpointEvery multiple, a golden convergence point) fall back to
// runBlockSlow, which applies those checks per instruction — so Result
// (outcome, cycles, counters, crash messages) is identical either way.
// Per-instruction observers (site recording, function spans, profiling,
// tracing) are charged at block granularity by the observers hook.
//
// All tables are indexed by instruction position: block formation never
// renumbers insts/uops, so fault-site indexing, DestBits, snapshots and
// journal identity are untouched.

// buildBlocks computes, for every instruction index, the exclusive end of
// its enclosing basic block (blockEnd) and the number of fault-injection
// sites from that index to the block end (siteSuffix). Leaders are the
// program start, every label (any label is a potential slow-path jump
// target), every resolved jump/call target, and the fall-through after any
// instruction that can transfer control — including uSlow, whose generic
// interpreter may perform arbitrary control flow. siteSuffix is defined for
// every index, not just leaders, so a run resumed mid-block (snapshot pcs
// are per-instruction) still gets an exact fault-proximity bound.
func (p *program) buildBlocks() {
	n := len(p.uops)
	p.blockEnd = make([]int32, n)
	p.siteSuffix = make([]int32, n)
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
	mark(p.start)
	mark(p.entry)
	for _, idx := range p.labels {
		mark(idx)
	}
	for i := range p.uops {
		switch p.uops[i].code {
		case uJmp, uJcc, uCall:
			mark(int(p.uops[i].target))
			mark(i + 1)
		case uRet, uHalt, uDetect, uSlow:
			mark(i + 1)
		}
	}
	next := int32(n)
	for i := n - 1; i >= 0; i-- {
		p.blockEnd[i] = next
		if leader[i] {
			next = int32(i)
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := int32(0)
		if int(p.blockEnd[i]) > i+1 {
			s = p.siteSuffix[i+1]
		}
		if p.uops[i].destKind != asm.DestNone {
			s++
		}
		p.siteSuffix[i] = s
	}
}

// runBlocks is the execution loop. It returns the terminal outcome and
// crash message; Run flushes spans and assembles the Result. ob, when
// non-nil, is charged with each block segment at the next block entry;
// that one branch is all an observer-free run pays for it.
func (m *Machine) runBlocks(opts *RunOpts, maxSteps uint64, ob *observers) (Outcome, string) {
	// The dispatch tables are loop-invariant; locals keep their headers in
	// registers instead of reloading them through m on every instruction.
	uops := m.uops
	blockEnd := m.blockEnd
	fault := opts.Fault
	stop := m.stopSite(opts)
	for {
		pc := m.pc
		if ob != nil {
			ob.enter(m, pc)
		}
		if pc < 0 || pc >= len(uops) {
			return OutcomeCrash, fmt.Sprintf("pc %d out of range", pc)
		}
		m.nBlocks++
		end := int(blockEnd[pc])
		// Fall back to exact per-instruction execution when the step
		// budget could expire inside the block (the budget is checked
		// before every instruction), the planned fault site could land
		// on one of the block's remaining destinations, or the next stop
		// site falls within the block.
		if m.dyn+uint64(end-pc) > maxSteps ||
			(fault != nil && !m.injected && fault.Site < m.sites+uint64(m.siteSuffix[pc])) ||
			stop <= m.sites+uint64(m.siteSuffix[pc]) {
			if out, msg, done := m.runBlockSlow(opts, maxSteps, pc, end); done {
				return out, msg
			}
			// The slow block may have applied the fault or passed a stop
			// site.
			stop = m.stopSite(opts)
			continue
		}
		i := pc
		for i < end {
			u := &uops[i]
			m.dyn++
			next, err := m.step(u, i)
			if err != nil {
				// A crashed instruction does not retire its destination, so
				// its site is not counted.
				return OutcomeCrash, err.Error()
			}
			if u.destKind != asm.DestNone {
				m.sites++
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

// runBlockSlow executes one basic block with per-instruction checks: step
// budget before each instruction, fault application on the matching site,
// per-site counting, the checkpoint schedule, the StopAtSites boundary and
// the golden convergence compare. It reports done=false when control left
// the block with the run still live.
func (m *Machine) runBlockSlow(opts *RunOpts, maxSteps uint64, pc, end int) (Outcome, string, bool) {
	fault := opts.Fault
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
			if k := opts.CheckpointEvery; k > 0 && m.sites%k == 0 {
				opts.OnCheckpoint(m.Snapshot())
			}
			if opts.StopAtSites > 0 && m.sites == opts.StopAtSites {
				// Capture before the epilogue's span flush so the boundary
				// state matches a golden OnCheckpoint snapshot bit for bit.
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

// observers charges a run's per-instruction observers — site recording,
// function spans, profiling and tracing — one block segment at a time.
// Execution inside a block is straight-line, so a segment entered at pc
// that retired n dynamic instructions executed exactly [pc, pc+n): the
// observers are charged from the static tables over that range, in
// execution order, when the next segment is entered or the run ends. The
// profile's float sums therefore accumulate in the same order as a
// per-instruction recorder would, and one hook serves both dispatch tiers.
type observers struct {
	record    bool      // RecordSiteStatics
	statics   []int32   // the site-static buffer being filled
	full      [][]int32 // filled buffers, in site order
	prof      *profile
	trace     *traceRing
	spans     bool // RecordFnSpans
	fnSpans   []FnSpan
	curFn     string
	spanStart uint64

	// The segment in flight: its entry pc and m.dyn and m.sites there.
	segPC            int
	segDyn, segSites uint64
}

// newObservers returns the run's observers, or nil when it has none.
func newObservers(m *Machine, opts *RunOpts) *observers {
	if !opts.RecordSiteStatics && !opts.RecordFnSpans && !opts.Profile && opts.Trace == 0 {
		return nil
	}
	o := &observers{record: opts.RecordSiteStatics, spans: opts.RecordFnSpans, segDyn: m.dyn}
	if o.record && m.lastSites > 0 {
		o.statics = make([]int32, 0, m.lastSites)
	}
	if opts.Profile {
		o.prof = &profile{}
	}
	if opts.Trace > 0 {
		o.trace = newTraceRing(opts.Trace)
	}
	return o
}

// enter charges the segment that just ended and opens one at pc.
func (o *observers) enter(m *Machine, pc int) {
	o.charge(m, false)
	o.segPC, o.segSites = pc, m.sites
}

// charge records the instructions executed since the segment opened. When
// crashed, the last of them faulted: it is profiled and traced but retired
// no site. Every function entry is a label, hence a block leader, so the
// executing function can only change at a segment that executed anything.
func (o *observers) charge(m *Machine, crashed bool) {
	end := o.segPC + int(m.dyn-o.segDyn)
	o.segDyn = m.dyn
	if end == o.segPC {
		return
	}
	if fn := m.insts[o.segPC].fn; o.spans && fn != o.curFn {
		o.span(fn, o.segSites)
	}
	if !o.record && o.prof == nil && o.trace == nil {
		return
	}
	for i := o.segPC; i < end; i++ {
		fi := &m.insts[i]
		if o.prof != nil {
			o.prof.record(fi)
		}
		if o.trace != nil {
			o.trace.record(fi)
		}
		if o.record && fi.dest.Kind != asm.DestNone && (!crashed || i < end-1) {
			if len(o.statics) == cap(o.statics) {
				o.spill()
			}
			o.statics = append(o.statics, int32(i))
		}
	}
}

// span closes the open function span at site count at and opens one for
// fn ("" opens none).
func (o *observers) span(fn string, at uint64) {
	if o.curFn != "" {
		o.fnSpans = append(o.fnSpans, FnSpan{Fn: o.curFn, Start: o.spanStart, End: at})
	}
	o.curFn, o.spanStart = fn, at
}

// siteChunk is the size of the site-static buffers a run fills once its
// capacity hint is exhausted. Filled buffers are kept and joined once at
// run end, so a long golden run allocates its site table about twice,
// not through a chain of copying regrowths whose garbage would raise the
// heap's high-water mark.
const siteChunk = 1 << 16

// spill retires the full site-static buffer and starts a new one.
func (o *observers) spill() {
	if len(o.statics) > 0 {
		o.full = append(o.full, o.statics)
	}
	o.statics = make([]int32, 0, siteChunk)
}

// end charges the final segment, closes the open function span and hands
// the recordings to the run's Result.
func (o *observers) end(m *Machine, crashed bool, res *Result) {
	o.charge(m, crashed)
	o.span("", m.sites)
	res.SiteStatics = o.statics
	if len(o.full) > 0 {
		res.SiteStatics = slices.Concat(append(o.full, o.statics)...)
	}
	res.FnSpans = o.fnSpans
	res.Profile, res.Trace = o.prof.export(), o.trace.dump()
}

// DispatchStats reports the basic blocks this machine entered in its
// lifetime.
func (m *Machine) DispatchStats() (blocksEntered uint64) { return m.nBlocks }
