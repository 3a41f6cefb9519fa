package machine

import (
	"unsafe"

	"ferrum/internal/pagemem"
)

// Checkpoints collects a run's checkpoint schedule (RunOpts.Checkpoints): a
// Snapshot after every Every-th dynamic site, in ascending Sites() order,
// for later fast-forward resumes and golden convergence.
//
// With Max or MaxBytes set, the run thins the schedule as it goes, so a run
// of unknown length ends with a bounded one. Whenever keeping the next
// snapshot would leave more than Max snapshots, or more than MaxBytes of
// them by size, the snapshots at odd multiples of Every are dropped and
// Every doubles. Started at Every = 1 with only Max set, a run of at least
// Max sites therefore ends at a power-of-two spacing with between Max/2 and
// Max snapshots. Either way the kept snapshots are exactly the ones a run
// at the final Every would have captured.
type Checkpoints struct {
	// Every is the spacing in dynamic sites; 0 captures nothing. A thinning
	// schedule doubles it, so after the run it holds the final spacing.
	Every uint64
	// Max and MaxBytes bound the kept snapshots by count and by total
	// size; 0 leaves that bound off.
	Max, MaxBytes int
	// Snaps are the kept snapshots.
	Snaps []*Snapshot
	// bytes is the total size of Snaps.
	bytes int
	// last is the latest capture, kept or not. Each capture shares the
	// pages it has left unchanged, so a schedule holds each page version
	// about once.
	last *Snapshot
	// free holds the snapshots thinning dropped, their page lists cleared.
	// No one else has seen them, so later captures reuse them: a doubling
	// captures about as many snapshots as the next one drops.
	free []*Snapshot
}

// take is called at each multiple of Every: it captures the machine state
// and keeps it, thinning the schedule first when keeping it would exceed a
// bound. A snapshot that thinning leaves off the new spacing is dropped.
func (c *Checkpoints) take(m *Machine) {
	var s *Snapshot
	if n := len(c.free); n > 0 {
		s, c.free = c.free[n-1], c.free[:n-1]
	} else {
		s = &Snapshot{}
	}
	m.captureSince(s, c.last)
	c.last = s
	for c.over(s.size()) {
		c.thin()
		if s.sites%c.Every != 0 {
			return
		}
	}
	c.Snaps = append(c.Snaps, s)
	c.bytes += s.size()
}

// over reports whether keeping one more snapshot of size n exceeds a bound.
// A lone snapshot is always kept: thinning cannot make room below one.
func (c *Checkpoints) over(n int) bool {
	if len(c.Snaps) == 0 {
		return false
	}
	return c.Max > 0 && len(c.Snaps) >= c.Max || c.MaxBytes > 0 && c.bytes+n > c.MaxBytes
}

// thin doubles the spacing and keeps the snapshots at its multiples.
func (c *Checkpoints) thin() {
	c.Every *= 2
	kept := c.Snaps[:0]
	c.bytes = 0
	for _, s := range c.Snaps {
		if s.sites%c.Every == 0 {
			kept = append(kept, s)
			c.bytes += s.size()
		} else {
			clear(s.pages[:cap(s.pages)]) // drop page buffers others may share
			c.free = append(c.free, s)
		}
	}
	clear(c.Snaps[len(kept):])
	c.Snaps = kept
}

// size reports the memory the snapshot holds: its fixed fields, the output
// stream, and the page headers and bytes of its memory delta. Pages shared
// with other snapshots of the same schedule are counted in full, so the
// total size of a schedule bounds its memory from above.
func (s *Snapshot) size() int {
	return int(unsafe.Sizeof(*s)) + 8*len(s.output) +
		int(unsafe.Sizeof(pagemem.Page{}))*len(s.pages) + s.MemBytes()
}
