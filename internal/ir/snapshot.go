package ir

import (
	"fmt"

	"ferrum/internal/pagemem"
)

// snapFrame is one serialised activation record: function and block are
// stored by name, and the register file is stored as a name-keyed value
// map, so a snapshot is independent of the decode stage's slot numbering
// and can be restored into any interpreter built from an equal module —
// including one whose engine version assigns slots differently.
type snapFrame struct {
	fn      string
	block   string
	idx     int
	env     map[string]uint64
	savedSP uint64
}

// Snapshot is a self-contained copy of an Interp's mid-run state: the call
// stack (with per-frame environments), sp, counters, output, and the memory
// pages dirtied since the run began (a delta against the pristine image).
// It is immutable after capture and safe to restore concurrently into
// different interpreters sharing the same module and image.
type Snapshot struct {
	frames []snapFrame
	sp     uint64

	output   []uint64
	steps    uint64
	sites    uint64
	injected bool
	injStep  uint64

	pages   []pagemem.Page
	memSize int
}

// Sites reports the number of dynamic fault-injection sites executed before
// the snapshot was taken; a resumed run can only reach fault sites >= this.
func (s *Snapshot) Sites() uint64 { return s.sites }

// Steps reports the dynamic instructions executed before the snapshot —
// the work a resumed run skips.
func (s *Snapshot) Steps() uint64 { return s.steps }

// MemBytes reports the bytes of dirtied memory the snapshot carries, the
// dominant cost of a restore.
func (s *Snapshot) MemBytes() int { return pagemem.Bytes(s.pages) }

// Snapshot captures the interpreter's current state. Meaningful mid-run
// (via RunOpts.OnCheckpoint); the capture is relative to the current
// pristine image, so mutating the image afterwards invalidates it.
func (ip *Interp) Snapshot() *Snapshot {
	ip.live("Snapshot")
	s := &Snapshot{
		frames:   make([]snapFrame, len(ip.frames)),
		sp:       ip.sp,
		output:   append([]uint64(nil), ip.output...),
		steps:    ip.steps,
		sites:    ip.sites,
		injected: ip.injected,
		injStep:  ip.injStep,
		pages:    ip.mem.Capture(),
		memSize:  len(ip.mem.B),
	}
	for i := range ip.frames {
		fr := &ip.frames[i]
		env := make(map[string]uint64, len(fr.regs))
		for slot, name := range fr.df.names {
			env[name] = fr.regs[slot]
		}
		s.frames[i] = snapFrame{
			fn:      fr.df.fn.Name,
			block:   fr.df.blocks[fr.block].name,
			idx:     int(fr.idx),
			env:     env,
			savedSP: fr.savedSP,
		}
	}
	return s
}

// Restore replaces the interpreter's state with a previously captured
// snapshot. Frame value maps are decoded back into dense register files so
// the snapshot stays immutable, and function/block names are resolved
// against this interpreter's module; after Restore a resumed Run matches a
// from-scratch run that reached the same point.
func (ip *Interp) Restore(s *Snapshot) error {
	ip.live("Restore")
	if s.memSize != len(ip.mem.B) {
		return fmt.Errorf("ir: snapshot mismatch (mem %d vs %d)", s.memSize, len(ip.mem.B))
	}
	frames := make([]frame, len(s.frames))
	for i, sf := range s.frames {
		fi, ok := ip.funcIdx[sf.fn]
		if !ok {
			return fmt.Errorf("ir: snapshot frame %d: function %q not found", i, sf.fn)
		}
		df := ip.dfuncs[fi]
		bi, ok := df.blockIdx[sf.block]
		if !ok {
			return fmt.Errorf("ir: snapshot frame %d: block %q not found in @%s", i, sf.block, sf.fn)
		}
		regs := make([]uint64, df.nregs)
		for name, v := range sf.env {
			if slot, ok := df.slotOf[name]; ok {
				regs[slot] = v
			}
		}
		frames[i] = frame{
			df:      df,
			block:   bi,
			idx:     int32(sf.idx),
			regs:    regs,
			savedSP: sf.savedSP,
		}
	}
	ip.mem.Restore(s.pages)
	ip.recycleFrames()
	ip.frames = append(ip.frames, frames...)
	ip.sp = s.sp
	ip.output = append(ip.output[:0], s.output...)
	ip.steps, ip.sites, ip.injected = s.steps, s.sites, s.injected
	ip.injStep = s.injStep
	return nil
}
