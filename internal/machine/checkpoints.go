package machine

import (
	"unsafe"

	"ferrum/internal/pagemem"
)

// Checkpoints collects a run's checkpoint schedule (RunOpts.Checkpoints):
// a Snapshot after every Every-th dynamic site, thinned under the Max and
// MaxBytes bounds as pagemem.Schedule describes.
type Checkpoints = pagemem.Schedule[Snapshot, *Snapshot]

// checkpoint captures the machine state at a multiple of c.Every into the
// snapshot the schedule hands out, and offers it to the schedule.
func (m *Machine) checkpoint(c *Checkpoints) {
	s, prev := c.Next()
	m.captureSince(s, prev)
	c.Keep(s)
}

// Size reports the memory the snapshot holds (pagemem.Capture): its fixed
// fields, the output stream, and the page headers and bytes of its delta.
func (s *Snapshot) Size() int {
	return int(unsafe.Sizeof(*s)) + 8*len(s.output) +
		int(unsafe.Sizeof(pagemem.Page{}))*len(s.pages) + s.MemBytes()
}

// DropPages is called by a schedule on a snapshot it dropped (pagemem.Capture).
func (s *Snapshot) DropPages() { clear(s.pages[:cap(s.pages)]) }
