package machine

import (
	"cmp"
	"fmt"
	"slices"

	"ferrum/internal/asm"
)

// Basic-block threaded dispatch: the machine's only execution loop.
//
// A block former (buildBlocks) partitions the decoded uop array into basic
// blocks at load time, and runBlocks executes a block segment after one
// bounds check, one budget check and one event check at segment entry. A
// run has few events among its instructions: the planned fault, checkpoint
// captures, the StopAtSites boundary and golden convergence compares. The
// segment simply ends where the budget runs out or just after the
// instruction that retires the next event site, and one event step does
// that event's work — so Result (outcome, cycles, counters, crash
// messages) is that of a run checked before and after every instruction.
//
// Every segment ends at an index known at its entry, and only its last
// instruction can transfer control, so its bookkeeping is charged once
// there from per-index prefix totals: instructions, sites, and scalar and
// vector cost. The pc is written once per segment, and then only by a
// control transfer; a run that stops inside a segment (crash, halt,
// detect) takes back the part it did not execute. Per-instruction
// observers (site recording, function spans, profiling, tracing) are
// charged at segment granularity by the observers hook.
//
// All tables are indexed by instruction position: block formation never
// renumbers insts/uops, so fault-site indexing, DestBits, snapshots and
// journal identity are untouched.

// buildBlocks computes, for every instruction index, the exclusive end of
// its enclosing basic block (blockEnd), the number of fault-injection
// sites before it (siteRank) and the scalar and vector cost before it
// (scalarSum, vectorSum), and lists the site instructions in order
// (siteInsts). Leaders are the program start, every function entry in
// fnEntries (so a block never spans two functions, which the function-span
// observer relies on), every resolved jump/call target, and the
// fall-through after any instruction that transfers control. Decode
// resolves every transfer's target, so a label that nothing jumps to does
// not start a block. The tables are defined for every index, not just
// leaders, so a run resumed mid-block (snapshot pcs are per-instruction)
// still gets an exact fault-proximity bound.
func (p *program) buildBlocks(fnEntries []int) {
	n := len(p.uops)
	p.blockEnd = make([]int32, n)
	p.siteRank = make([]int32, n+1)
	p.scalarSum = make([]float64, n+1)
	p.vectorSum = make([]float64, n+1)
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
	for _, i := range fnEntries {
		mark(i)
	}
	for i := range p.uops {
		switch p.uops[i].code {
		case uJmp, uJcc, uCall:
			mark(int(p.uops[i].target))
			mark(i + 1)
		case uRet, uHalt, uDetect:
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
	for i := range p.uops {
		u := &p.uops[i]
		p.siteRank[i+1] = p.siteRank[i]
		if u.destKind != asm.DestNone {
			p.siteRank[i+1]++
		}
		p.scalarSum[i+1] = p.scalarSum[i] + u.cost.scalar
		p.vectorSum[i+1] = p.vectorSum[i] + u.cost.vector
	}
	p.siteInsts = make([]int32, 0, p.siteRank[n])
	for i := range p.uops {
		if p.uops[i].destKind != asm.DestNone {
			p.siteInsts = append(p.siteInsts, int32(i))
		}
	}
}

// runBlocks is the execution loop. It returns the terminal outcome and
// crash message; Run flushes spans and assembles the Result. It runs one
// block segment at a time. A segment entered at pc ends at the earliest of
// three points: the block end, the instruction where the step budget runs
// out, and just after the instruction that retires the next event site
// (nextEvent). The segment [pc, end) is charged whole before it runs —
// its instruction and site counts and both cost spans, as prefix
// differences — and m.pc is set to end, which a control transfer (only
// ever the segment's last instruction) overwrites. The inner loop
// therefore runs with no per-instruction budget, fault, stop or
// bookkeeping work; a segment that ends on its event site is followed by
// one event step. ob, when non-nil, is charged with each segment at the
// next segment entry; that one branch is all an observer-free run pays
// for it.
//
// Charging a segment whole is exact: every cost is a multiple of a
// quarter cycle and every prefix total stays far below 2^53 quarters, so
// float sums and differences of costs round nowhere and add up to the
// per-instruction sums bit for bit (TestCostsAreQuarterCycles).
func (m *Machine) runBlocks(opts *RunOpts, maxSteps uint64, ob *observers) (Outcome, string) {
	// The dispatch tables are loop-invariant; locals keep their headers in
	// registers instead of reloading them through m on every segment.
	uops := m.uops
	blockEnd := m.blockEnd
	siteRank, siteInsts := m.siteRank, m.siteInsts
	scalarSum, vectorSum := m.scalarSum, m.vectorSum
	ev := m.nextEvent(opts)
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
		// The budget is checked before every instruction: a segment entered
		// with none left ends the run, and one entered with some stops
		// where it runs out.
		if m.dyn+uint64(end-pc) > maxSteps {
			if m.dyn >= maxSteps {
				return OutcomeHang, ""
			}
			end = pc + int(maxSteps-m.dyn)
		}
		// The event site is the k-th site from pc on; the segment ends just
		// after it when it lies before end.
		event := false
		if k := ev - m.sites; k < uint64(len(siteInsts)) {
			if i := uint64(siteRank[pc]) + k; i < uint64(len(siteInsts)) {
				if e := int(siteInsts[i]) + 1; e <= end {
					end, event = e, true
				}
			}
		}
		m.dyn += uint64(end - pc)
		m.sites += uint64(siteRank[end] - siteRank[pc])
		m.scalarSpan += scalarSum[end] - scalarSum[pc]
		m.vectorSpan += vectorSum[end] - vectorSum[pc]
		m.pc = end
		for i := pc; i < end; i++ {
			if err := m.step(&uops[i], i); err != nil {
				return m.stop(i, end, err)
			}
		}
		if event {
			if out, done := m.event(opts, end-1); done {
				return out, ""
			}
			ev = m.nextEvent(opts)
		}
	}
}

// stop ends a run at instruction i of the segment [.., end) that was
// charged whole, leaving m.pc at i. A halt or detect is its block's last
// instruction, so nothing was overcharged. A crashed instruction counts as
// executed and is charged its cost, but it does not retire its
// destination: the tail (i, end) and i's own site are taken back.
func (m *Machine) stop(i, end int, err error) (Outcome, string) {
	m.pc = i
	switch err {
	case errHalt:
		return OutcomeOK, ""
	case errDetect:
		return OutcomeDetected, ""
	}
	m.dyn -= uint64(end - i - 1)
	m.sites -= uint64(m.siteRank[end] - m.siteRank[i])
	m.scalarSpan -= m.scalarSum[end] - m.scalarSum[i+1]
	m.vectorSpan -= m.vectorSum[end] - m.vectorSum[i+1]
	return OutcomeCrash, err.Error()
}

// event is the event step, run after a segment retired the site
// instruction i that nextEvent named. In this order it captures the fork
// and applies the pending fault (with its Extra bits) to i's destination,
// captures the checkpoint, stops at the StopAtSites boundary and runs the
// convergence compare. It reports done with the outcome when the run ends
// there.
func (m *Machine) event(opts *RunOpts, i int) (Outcome, bool) {
	if f := opts.Fault; f != nil && !m.injected && f.Site == m.sites-1 {
		if opts.Fork != nil {
			m.fork(opts.Fork)
		}
		dest := m.insts[i].dest
		m.applyFault(dest, f.Bit)
		for _, b := range f.Extra {
			m.applyFault(dest, b)
		}
		m.injected = true
		m.injCycles = m.cyclesNow()
		m.injDyn = m.dyn
	}
	if c := opts.Checkpoints; c != nil && m.sites%c.Every == 0 {
		m.checkpoint(c)
	}
	if opts.StopAtSites > 0 && m.sites == opts.StopAtSites {
		// Capture before the epilogue's span flush so the boundary state
		// matches a golden checkpoint snapshot bit for bit.
		m.boundary = m.Snapshot()
		return OutcomeBoundary, true
	}
	if m.checkConverged() {
		return outcomeConverged, true
	}
	return 0, false
}

// observers charges a run's per-instruction observers — site recording,
// function spans, profiling and tracing — one block segment at a time.
// Execution inside a block is straight-line, so a segment entered at pc
// that retired n dynamic instructions executed exactly [pc, pc+n): the
// observers are charged from the static tables over that range, in
// execution order, when the next segment is entered or the run ends. Site
// recording appends the range's site instructions as one slice copy; the
// profile and the trace walk it instruction by instruction, so the
// profile's float sums accumulate in the same order as a per-instruction
// recorder would.
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

// newObservers returns the run's observers, or nil when it has none. The
// site table starts at the expected site count, or else the previous
// run's, so a run whose count is known allocates it once. No run retires
// more sites than its step budget, so that bounds the expected count.
func newObservers(m *Machine, opts *RunOpts, maxSteps uint64) *observers {
	if !opts.RecordSiteStatics && !opts.RecordFnSpans && !opts.Profile && opts.Trace == 0 {
		return nil
	}
	o := &observers{record: opts.RecordSiteStatics, spans: opts.RecordFnSpans, segDyn: m.dyn}
	if n := cmp.Or(min(opts.ExpectSites, maxSteps), m.lastSites); o.record && n > 0 {
		o.statics = make([]int32, 0, n)
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
// no site. Every function entry is a block leader, so the executing
// function can only change at a segment that executed anything.
func (o *observers) charge(m *Machine, crashed bool) {
	end := o.segPC + int(m.dyn-o.segDyn)
	o.segDyn = m.dyn
	if end == o.segPC {
		return
	}
	if fn := m.insts[o.segPC].fn; o.spans && fn != o.curFn {
		o.span(fn, o.segSites)
	}
	if o.record {
		retired := end
		if crashed {
			retired--
		}
		o.recordSites(m.siteInsts[m.siteRank[o.segPC]:m.siteRank[retired]])
	}
	if o.prof == nil && o.trace == nil {
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
// capacity is exhausted, which only a run whose site count is not known
// in advance reaches. Filled buffers are kept and joined once at run end,
// so such a run allocates its site table about twice, not through a chain
// of copying regrowths whose garbage would raise the heap's high-water
// mark.
const siteChunk = 1 << 16

// recordSites appends a segment's site statics, as few slice copies as
// the buffers they span.
func (o *observers) recordSites(sites []int32) {
	for {
		n := copy(o.statics[len(o.statics):cap(o.statics)], sites)
		o.statics, sites = o.statics[:len(o.statics)+n], sites[n:]
		if len(sites) == 0 {
			return
		}
		if len(o.statics) > 0 {
			o.full = append(o.full, o.statics)
		}
		o.statics = make([]int32, 0, siteChunk)
	}
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

// DispatchStats reports the block segments this machine entered in its
// lifetime: one per basic block entered, plus one more for each event
// (fault, checkpoint, convergence compare) that split a block.
func (m *Machine) DispatchStats() (blocksEntered uint64) { return m.nBlocks }
