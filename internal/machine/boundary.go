package machine

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"

	"ferrum/internal/asm"
	"ferrum/internal/pagemem"
)

// Boundary-state support for compositional campaigns: snapshot digests that
// fingerprint a machine state, a pristine-image-aware diff between two
// snapshots taken at the same site count, and the small accessors the
// compose/fi layers need to classify a faulty boundary against the golden
// checkpoint schedule.

// PC reports the snapshot's program counter (the next instruction to
// execute), in flat load order — the coordinate system of LocOf.
func (s *Snapshot) PC() int { return s.pc }

// CyclesNow reports the snapshot's cycle clock with its in-flight
// dual-issue spans folded in, mirroring the machine's mid-run clock. Golden
// checkpoints are captured before span flushing, so this — not the raw
// cycles field — is the comparable "time at this snapshot" value.
func (s *Snapshot) CyclesNow() float64 {
	if s.vectorSpan > s.scalarSpan {
		return s.cycles + s.vectorSpan
	}
	return s.cycles + s.scalarSpan
}

// Digest fingerprints the snapshot's architectural and cost-model state:
// registers, flags, pc, counters, cycle clock, output stream, and the dirty
// page delta (in canonical page order). Two runs of the same program that
// pass through bit-identical state at the same point produce equal digests;
// injection bookkeeping (injected/injCycles/injDyn) is deliberately
// excluded so the digest speaks only for program-visible state.
func (s *Snapshot) Digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, g := range s.gpr {
		w(g)
	}
	for _, x := range s.x {
		for _, lane := range x {
			w(lane)
		}
	}
	var fl uint64
	for i, f := range s.flags {
		if f {
			fl |= 1 << i
		}
	}
	w(fl)
	w(uint64(s.pc))
	w(s.dyn)
	w(s.sites)
	w(math.Float64bits(s.cycles))
	w(math.Float64bits(s.scalarSpan))
	w(math.Float64bits(s.vectorSpan))
	w(uint64(len(s.output)))
	for _, o := range s.output {
		w(o)
	}
	// Dirty pages are listed in first-touch order, which can differ between
	// two runs reaching the same state; hash them in page order.
	pages := append([]pagemem.Page(nil), s.pages...)
	sort.Slice(pages, func(i, j int) bool { return pages[i].Idx < pages[j].Idx })
	w(uint64(len(pages)))
	for _, pg := range pages {
		w(uint64(pg.Idx))
		h.Write(pg.Data)
	}
	w(uint64(s.memSize))
	w(uint64(s.nInsts))
	return h.Sum64()
}

// ImageDigest fingerprints the pristine memory image every run starts from.
// Section fingerprints fold it in so cached propagation tables from a
// program with different data never match.
func (m *Machine) ImageDigest() uint64 { return m.mem.ImageDigest() }

// LocOf maps a flat program counter back to its static location (enclosing
// function and index within it) — the coordinates the liveness analyses
// speak. ok is false for an out-of-range pc.
func (m *Machine) LocOf(pc int) (fn string, idx int, ok bool) {
	if pc < 0 || pc >= len(m.insts) {
		return "", 0, false
	}
	return m.insts[pc].fn, m.insts[pc].idx, true
}

// BoundaryDiff reports how a faulty boundary snapshot's architectural state
// differs from the golden checkpoint at the same site count. Cycle-clock
// fields are deliberately not compared: they are cost-model bookkeeping,
// not program state.
type BoundaryDiff struct {
	// Comparable is false when the snapshots are from different programs or
	// memory sizes; nothing else in the diff is meaningful then.
	Comparable bool
	PC         bool // program counters differ
	Dyn        bool // dynamic instruction or site counters differ
	Mem        bool // any memory byte differs (pristine-image aware)
	XMM        bool // any vector register differs
	Output     bool // the output streams emitted so far differ
	GPRs       []asm.Reg
	Flags      []asm.Flag
}

// Clean reports a boundary with no architectural difference at all — the
// injected error dissipated completely before the section boundary.
func (d BoundaryDiff) Clean() bool {
	return d.Comparable && !d.PC && !d.Dyn && !d.Mem && !d.XMM && !d.Output &&
		len(d.GPRs) == 0 && len(d.Flags) == 0
}

// DiffSnapshots compares two snapshots of this machine's program. Pages
// dirty in one snapshot but not the other are compared against the pristine
// image, so a page touched and restored to its original bytes does not
// register as a memory difference.
func (m *Machine) DiffSnapshots(a, b *Snapshot) BoundaryDiff {
	var d BoundaryDiff
	if a.memSize != b.memSize || a.nInsts != b.nInsts ||
		a.memSize != len(m.mem.B) || a.nInsts != len(m.insts) {
		return d
	}
	d.Comparable = true
	for r := 0; r < int(asm.NumReg); r++ {
		if a.gpr[r] != b.gpr[r] {
			d.GPRs = append(d.GPRs, asm.Reg(r))
		}
	}
	for x := range a.x {
		if a.x[x] != b.x[x] {
			d.XMM = true
			break
		}
	}
	for f := 0; f < int(asm.NumFlag); f++ {
		if a.flags[f] != b.flags[f] {
			d.Flags = append(d.Flags, asm.Flag(f))
		}
	}
	d.PC = a.pc != b.pc
	d.Dyn = a.dyn != b.dyn || a.sites != b.sites
	if len(a.output) != len(b.output) {
		d.Output = true
	} else {
		for i := range a.output {
			if a.output[i] != b.output[i] {
				d.Output = true
				break
			}
		}
	}
	d.Mem = m.mem.PagesDiffer(a.pages, b.pages)
	return d
}
