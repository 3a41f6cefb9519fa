package machine

import (
	"fmt"

	"ferrum/internal/asm"
	"ferrum/internal/pagemem"
)

// Snapshot is a self-contained copy of a Machine's mid-run state: registers,
// flags, pc, dynamic counters, the output stream, in-flight cycle spans, and
// the memory pages dirtied since the run began (a delta against the pristine
// image, not a full memory copy). A snapshot taken on one machine can be
// restored into any machine loaded with the same program and memory size, as
// long as both share the same pristine image; it is immutable after capture
// and safe to restore concurrently into different machines.
type Snapshot struct {
	gpr       [asm.NumReg]uint64
	x         [asm.NumXReg][8]uint64
	flags     [asm.NumFlag]bool
	pc        int
	dyn       uint64
	sites     uint64
	injected  bool
	injCycles float64
	injDyn    uint64

	output     []uint64
	scalarSpan float64
	vectorSpan float64
	cycles     float64

	pages   []pagemem.Page
	memSize int
	nInsts  int
}

// Sites reports the number of dynamic fault-injection sites executed before
// the snapshot was taken; a resumed run can only reach fault sites >= this.
func (s *Snapshot) Sites() uint64 { return s.sites }

// DynInsts reports the dynamic instructions executed before the snapshot —
// the work a resumed run skips.
func (s *Snapshot) DynInsts() uint64 { return s.dyn }

// MemBytes reports the bytes of dirtied memory the snapshot carries, the
// dominant cost of a restore.
func (s *Snapshot) MemBytes() int { return pagemem.Bytes(s.pages) }

// Snapshot captures the machine's current state. Meaningful mid-run (via
// RunOpts.Checkpoints) or immediately after a run; the capture is relative
// to the current pristine image, so mutating the image afterwards
// invalidates the snapshot.
func (m *Machine) Snapshot() *Snapshot {
	m.live("Snapshot")
	s := &Snapshot{}
	m.captureSince(s, nil)
	return s
}

// captureSince captures the machine's state into s, sharing the memory
// pages of prev, an earlier snapshot of this run, that still hold the same
// bytes. s may be a snapshot no one holds any more: its page list and
// output buffer are reused, its page buffers are not.
func (m *Machine) captureSince(s, prev *Snapshot) {
	var prevPages []pagemem.Page
	if prev != nil {
		prevPages = prev.pages
	}
	m.capture(s, m.mem.CaptureSince(prevPages, s.pages))
}

// fork captures the machine's state into s, a snapshot only ever captured
// by fork, copying the memory delta into the page buffers s already owns
// (pagemem.CaptureInto): a fork shares no page, so the next fork captured
// into s allocates nothing once its buffers are grown.
func (m *Machine) fork(s *Snapshot) { m.capture(s, m.mem.CaptureInto(s.pages)) }

// capture fills s with the machine's state and pages, its memory delta,
// reusing s's output buffer.
func (m *Machine) capture(s *Snapshot, pages []pagemem.Page) {
	var output []uint64
	if len(m.output) > 0 {
		output = append(s.output[:0], m.output...)
	}
	*s = Snapshot{
		gpr: m.gpr, x: m.x, flags: m.flags,
		pc: m.pc, dyn: m.dyn, sites: m.sites, injected: m.injected,
		injCycles: m.injCycles, injDyn: m.injDyn,
		output:     output,
		scalarSpan: m.scalarSpan, vectorSpan: m.vectorSpan, cycles: m.cycles,
		pages:   pages,
		memSize: len(m.mem.B),
		nInsts:  len(m.insts),
	}
}

// Restore replaces the machine's state with a previously captured snapshot,
// copying only the pristine image's dirtied pages plus the snapshot's page
// delta. After Restore the machine is bit-identical to the one the snapshot
// was taken from, so a Run resumed here matches a from-scratch run that
// reached the same point.
func (m *Machine) Restore(s *Snapshot) error {
	m.live("Restore")
	if s.memSize != len(m.mem.B) || s.nInsts != len(m.insts) {
		return fmt.Errorf("machine: snapshot mismatch (mem %d vs %d, insts %d vs %d)",
			s.memSize, len(m.mem.B), s.nInsts, len(m.insts))
	}
	m.mem.Restore(s.pages)
	m.gpr, m.x, m.flags = s.gpr, s.x, s.flags
	m.pc, m.dyn, m.sites, m.injected = s.pc, s.dyn, s.sites, s.injected
	m.injCycles, m.injDyn = s.injCycles, s.injDyn
	m.output = append(m.output[:0], s.output...)
	m.scalarSpan, m.vectorSpan, m.cycles = s.scalarSpan, s.vectorSpan, s.cycles
	return nil
}
