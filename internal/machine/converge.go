package machine

import (
	"math"
	"sort"
)

// Golden convergence: exact early exit for injected runs (RunOpts.Golden).
//
// The machine's next state is a pure function of its current state: pc,
// registers, flags, vector registers and memory decide what executes; dyn
// decides when the step budget expires; the cycle clock and the in-flight
// dual-issue spans decide Cycles; the output stream decides Output. A
// faulty run whose complete state equals the golden run's at the same
// site count therefore continues exactly as the golden run did and ends
// with the golden Result. The injection bookkeeping is the only state the
// compare ignores: it no longer influences execution once the fault has
// been applied, and the converged Result keeps this run's own stamps.

// outcomeConverged is runBlocks' internal report that the run's state
// rejoined a golden checkpoint; Run never returns it.
const outcomeConverged = OutcomeBoundary + 1

// goldenAhead returns the golden checkpoints a run may converge at: those
// strictly after both the run's start and its pending fault site. It
// returns nil when opts.Golden cannot stand in for the rest of the run.
func (m *Machine) goldenAhead(opts *RunOpts, maxSteps uint64) []*Snapshot {
	g := opts.Golden
	if g == nil || opts.observed() || opts.StopAtSites > 0 ||
		g.End.Outcome != OutcomeOK || g.End.DynInsts > maxSteps {
		return nil
	}
	from := m.sites
	if f := opts.Fault; f != nil && !m.injected && f.Site > from {
		from = f.Site
	}
	cps := g.Checkpoints
	i := sort.Search(len(cps), func(i int) bool { return cps[i].sites > from })
	if i == len(cps) {
		return nil
	}
	return cps[i:]
}

// observed reports whether the run records anything beyond its Result's
// terminal fields: sites, spans, a profile, a trace or checkpoints.
func (o *RunOpts) observed() bool {
	return o.RecordSiteStatics || o.RecordFnSpans || o.Profile || o.Trace > 0 || o.Checkpoints != nil
}

// nextEvent returns the index (counting sites from 0) of the next site
// whose retirement is an event for the block loop: the pending fault
// site, the StopAtSites boundary, the next multiple of the checkpoint
// spacing, or, once the fault has been applied, the next golden
// checkpoint. MaxUint64 means none. It is never below m.sites.
func (m *Machine) nextEvent(opts *RunOpts) uint64 {
	e := uint64(math.MaxUint64)
	if f := opts.Fault; f != nil && !m.injected && f.Site >= m.sites {
		e = f.Site
	}
	if s := opts.StopAtSites; s > m.sites {
		e = min(e, s-1)
	}
	if c := opts.Checkpoints; c != nil {
		e = min(e, (m.sites/c.Every+1)*c.Every-1)
	}
	if m.injected && len(m.conv) > 0 {
		e = min(e, m.conv[0].sites-1)
	}
	return e
}

// checkConverged runs in the event step. At the next golden checkpoint's
// site count it reports whether the live state equals that checkpoint; on
// a mismatch it moves on to the next one.
func (m *Machine) checkConverged() bool {
	if !m.injected || len(m.conv) == 0 || m.sites != m.conv[0].sites {
		return false
	}
	if m.matchesSnapshot(m.conv[0]) {
		return true
	}
	m.conv = m.conv[1:]
	return false
}

// matchesSnapshot reports whether the live state equals s bit for bit, at
// the capture point checkpoints use. It allocates nothing after the
// machine's first compare. The scalar fields go first, so a run whose
// control flow, timing or output has diverged is rejected before any
// register or memory is read.
func (m *Machine) matchesSnapshot(s *Snapshot) bool {
	if m.pc != s.pc || m.dyn != s.dyn || m.sites != s.sites ||
		math.Float64bits(m.cycles) != math.Float64bits(s.cycles) ||
		math.Float64bits(m.scalarSpan) != math.Float64bits(s.scalarSpan) ||
		math.Float64bits(m.vectorSpan) != math.Float64bits(s.vectorSpan) ||
		len(m.output) != len(s.output) ||
		s.memSize != len(m.mem.B) || s.nInsts != len(m.insts) {
		return false
	}
	if m.gpr != s.gpr || m.flags != s.flags {
		return false
	}
	for i, o := range m.output {
		if o != s.output[i] {
			return false
		}
	}
	return m.x == s.x && m.mem.Matches(s.pages)
}

// convergedResult is the Result the full run would have returned: the
// golden run's terminal fields with this run's injection stamps.
func (m *Machine) convergedResult(end *Result) Result {
	m.nConverged++
	m.lastSites = end.DynSites
	return Result{
		Outcome:     end.Outcome,
		Output:      append([]uint64(nil), end.Output...),
		Cycles:      end.Cycles,
		DynInsts:    end.DynInsts,
		DynSites:    end.DynSites,
		CrashMsg:    end.CrashMsg,
		Injected:    m.injected,
		FaultCycles: m.injCycles,
		FaultDyn:    m.injDyn,
	}
}

// Converged reports how many of this machine's runs ended early at a
// golden checkpoint (RunOpts.Golden).
func (m *Machine) Converged() uint64 { return m.nConverged }
