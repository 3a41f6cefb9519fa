package pagemem

// Capture is an engine snapshot as a Schedule keeps it. Its pages come from
// CaptureSince, so it may share page buffers with its neighbours.
type Capture[T any] interface {
	*T
	Sites() uint64 // dynamic sites executed before the capture
	// Size bounds the memory the capture holds, shared pages counted in full.
	Size() int
	// DropPages clears the page list, keeping its capacity, so the dropped
	// capture no longer pins page buffers it shares.
	DropPages()
}

// Schedule collects a run's checkpoint schedule on either engine: a capture
// after every Every-th dynamic site, in ascending Sites() order. At each
// multiple of Every the engine fills the capture Next hands out, sharing
// the unchanged pages of the previous one, and passes it to Keep.
//
// With Max or MaxBytes set, the run thins the schedule as it goes, so a run
// of unknown length ends with a bounded one. Whenever keeping the next
// capture would leave more than Max captures, or more than MaxBytes of them
// by Size, the captures at odd multiples of Every are dropped and Every
// doubles. Started at Every = 1 with only Max set, a run of at least Max
// sites ends at a power-of-two spacing with between Max/2 and Max captures.
// Either way the kept captures are exactly those a run at the final Every
// would have taken.
type Schedule[T any, S Capture[T]] struct {
	// Every is the spacing in dynamic sites; 0 captures nothing. Thinning
	// doubles it, so after the run it holds the final spacing.
	Every uint64
	// Max and MaxBytes bound the kept captures by count and by total Size;
	// 0 leaves that bound off.
	Max, MaxBytes int
	Snaps         []S // the kept captures
	bytes         int // total Size of Snaps
	last          S   // the latest capture, kept or not
	// free holds the captures thinning dropped. No one else has seen them,
	// so Next reuses them: a doubling captures about as many as the next
	// one drops.
	free []S
}

// Next returns the capture to fill, a dropped one or a new one, and the
// latest capture, whose unchanged pages it may share.
func (c *Schedule[T, S]) Next() (s, prev S) {
	if n := len(c.free); n > 0 {
		s, c.free = c.free[n-1], c.free[:n-1]
	} else {
		s = new(T)
	}
	return s, c.last
}

// Keep keeps s, the capture Next handed out, thinning the schedule first
// when keeping it would exceed a bound. A capture off the new spacing is
// dropped.
func (c *Schedule[T, S]) Keep(s S) {
	c.last = s
	for c.over(s.Size()) {
		c.thin()
		if s.Sites()%c.Every != 0 {
			return
		}
	}
	c.Snaps = append(c.Snaps, s)
	c.bytes += s.Size()
}

// over reports whether keeping one more capture of size n exceeds a bound.
// A lone capture is always kept: thinning cannot make room below one.
func (c *Schedule[T, S]) over(n int) bool {
	if len(c.Snaps) == 0 {
		return false
	}
	return c.Max > 0 && len(c.Snaps) >= c.Max || c.MaxBytes > 0 && c.bytes+n > c.MaxBytes
}

// thin doubles the spacing and keeps the captures at its multiples.
func (c *Schedule[T, S]) thin() {
	c.Every *= 2
	kept := c.Snaps[:0]
	c.bytes = 0
	for _, s := range c.Snaps {
		if s.Sites()%c.Every == 0 {
			kept = append(kept, s)
			c.bytes += s.Size()
		} else {
			s.DropPages()
			c.free = append(c.free, s)
		}
	}
	clear(c.Snaps[len(kept):])
	c.Snaps = kept
}
