package ir

import (
	"fmt"
	"unsafe"

	"ferrum/internal/pagemem"
)

// snapFrame is one captured activation record in decoded form: the
// function's index in the interpreter's decoded functions, the block and
// instruction indices, and a copy of the register file. Snapshots never
// leave the process; they restore into the interpreter that took them or
// its clones, which share its decoding.
type snapFrame struct {
	fn, block, idx int32
	regs           []uint64
	savedSP        uint64
}

// Snapshot is a self-contained copy of an Interp's mid-run state: the call
// stack (with per-frame register files), sp, counters, output, and the memory
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

// Checkpoints collects a run's checkpoint schedule (RunOpts.Checkpoints),
// the only way to take a Snapshot: one after every Every-th dynamic site,
// thinned under the Max and MaxBytes bounds as pagemem.Schedule describes.
type Checkpoints = pagemem.Schedule[Snapshot, *Snapshot]

// checkpoint captures the interpreter state at a multiple of c.Every into
// the snapshot the schedule hands out, and offers it to the schedule. The
// capture is relative to the current pristine image, so mutating the image
// afterwards invalidates it.
func (ip *Interp) checkpoint(c *Checkpoints) {
	s, prev := c.Next()
	var prevPages []pagemem.Page
	if prev != nil {
		prevPages = prev.pages
	}
	*s = Snapshot{
		frames:   make([]snapFrame, len(ip.frames)),
		sp:       ip.sp,
		output:   append([]uint64(nil), ip.output...),
		steps:    ip.steps,
		sites:    ip.sites,
		injected: ip.injected,
		injStep:  ip.injStep,
		pages:    ip.mem.CaptureSince(prevPages, s.pages),
		memSize:  len(ip.mem.B),
	}
	for i := range ip.frames {
		fr := &ip.frames[i]
		s.frames[i] = snapFrame{
			fn:      fr.df.idx,
			block:   fr.block,
			idx:     fr.idx,
			regs:    append([]uint64(nil), fr.regs...),
			savedSP: fr.savedSP,
		}
	}
	c.Keep(s)
}

// Size reports the memory the snapshot holds (pagemem.Capture): its fixed
// fields, frames and register files, the output stream, and the page
// headers and bytes of its delta.
func (s *Snapshot) Size() int {
	n := int(unsafe.Sizeof(*s)) + int(unsafe.Sizeof(snapFrame{}))*len(s.frames) +
		8*len(s.output) + int(unsafe.Sizeof(pagemem.Page{}))*len(s.pages) + s.MemBytes()
	for _, f := range s.frames {
		n += 8 * len(f.regs)
	}
	return n
}

// DropPages is called by a schedule on a snapshot it dropped (pagemem.Capture).
func (s *Snapshot) DropPages() { clear(s.pages[:cap(s.pages)]) }

// Restore replaces the interpreter's state with a previously captured
// snapshot. Register files are copied into fresh frames so the snapshot
// stays immutable; a frame whose function, block or instruction index is
// out of range for this interpreter, or whose register file has the wrong
// length, is rejected. After Restore a resumed Run matches a from-scratch
// run that reached the same point.
func (ip *Interp) Restore(s *Snapshot) error {
	ip.live("Restore")
	if s.memSize != len(ip.mem.B) {
		return fmt.Errorf("ir: snapshot mismatch (mem %d vs %d)", s.memSize, len(ip.mem.B))
	}
	for i, sf := range s.frames {
		if sf.fn < 0 || int(sf.fn) >= len(ip.dfuncs) {
			return fmt.Errorf("ir: snapshot frame %d: function index %d out of range", i, sf.fn)
		}
		df := ip.dfuncs[sf.fn]
		if sf.block < 0 || int(sf.block) >= len(df.blocks) || sf.idx < 0 ||
			int(sf.idx) >= len(df.blocks[sf.block].insts) || len(sf.regs) != df.nregs {
			return fmt.Errorf("ir: snapshot frame %d does not fit @%s (block %d, instruction %d, %d registers)",
				i, df.fn.Name, sf.block, sf.idx, len(sf.regs))
		}
	}
	ip.mem.Restore(s.pages)
	ip.recycleFrames()
	for _, sf := range s.frames {
		df := ip.dfuncs[sf.fn]
		regs := ip.acquireRegs(df.nregs)
		copy(regs, sf.regs)
		ip.frames = append(ip.frames, frame{df: df, block: sf.block, idx: sf.idx, regs: regs, savedSP: sf.savedSP})
	}
	ip.sp = s.sp
	ip.output = append(ip.output[:0], s.output...)
	ip.steps, ip.sites, ip.injected = s.steps, s.sites, s.injected
	ip.injStep = s.injStep
	return nil
}
