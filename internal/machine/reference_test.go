package machine

import (
	"fmt"

	"ferrum/internal/asm"
)

// runReference is the per-instruction reference engine the block loop is
// tested against: one loop that checks the pc, the step budget, the fault
// site, the checkpoint schedule and StopAtSites before or after every
// instruction, and charges every observer as the instruction executes. It
// ignores the block tables, so together with forceSlow it is the
// pre-decode interpreter. It does not honour RunOpts.Golden.
func (m *Machine) runReference(opts RunOpts) Result {
	maxSteps, err := m.begin(&opts)
	if err != nil {
		return Result{Outcome: OutcomeCrash, CrashMsg: err.Error()}
	}
	outcome := OutcomeHang
	var crashMsg string
	var siteStatics []int32
	if opts.RecordSiteStatics && m.lastSites > 0 {
		siteStatics = make([]int32, 0, m.lastSites)
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
		u := &m.uops[pc]
		m.dyn++
		if opts.RecordFnSpans {
			if fn := m.insts[pc].fn; fn != curFn {
				if curFn != "" {
					fnSpans = append(fnSpans, FnSpan{Fn: curFn, Start: spanStart, End: m.sites})
				}
				curFn, spanStart = fn, m.sites
			}
		}
		if prof != nil {
			prof.record(&m.insts[pc])
		}
		if trace != nil {
			trace.record(&m.insts[pc])
		}
		next, err := m.step(u, pc)
		if err != nil {
			outcome, crashMsg = OutcomeCrash, err.Error()
			break
		}
		if u.destKind != asm.DestNone {
			if opts.Fault != nil && m.sites == opts.Fault.Site {
				dest := m.insts[pc].dest
				m.applyFault(dest, opts.Fault.Bit)
				for _, b := range opts.Fault.Extra {
					m.applyFault(dest, b)
				}
				m.injected = true
				m.injCycles = m.cyclesNow()
				m.injDyn = m.dyn
			}
			if opts.RecordSiteStatics {
				siteStatics = append(siteStatics, int32(pc))
			}
			m.sites++
			if opts.CheckpointEvery > 0 && m.sites%opts.CheckpointEvery == 0 && opts.OnCheckpoint != nil {
				opts.OnCheckpoint(m.Snapshot())
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
