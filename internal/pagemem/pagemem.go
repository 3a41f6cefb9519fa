// Package pagemem is the flat, page-tracked memory both execution engines
// run on: the machine model (internal/machine) and the IR interpreter
// (internal/ir). A Mem is a working buffer over a pristine image that a
// template engine and its clones share. The Mem records which pages a run
// dirtied, so a reset, a snapshot capture and a restore touch only those
// pages, and it recycles its buffers through a pool of all-zero buffers.
//
// One invariant carries everything: outside the pages in its dirty set, a
// live Mem's buffer equals the image. Image writes mark the pages they
// touch dirty in the writer, and a clone starts on a zero buffer whose
// dirty set is the image's written pages, so the invariant holds from the
// first byte. A buffer can therefore be non-zero only on dirty pages and
// image-written pages, and Release zeroes exactly those before returning
// it to the pool.
package pagemem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// Dirty-page tracking granularity, shared by both engines so the two
// levels have comparable snapshot costs.
const (
	PageShift = 9 // 512-byte pages
	PageSize  = 1 << PageShift
)

// GuardSize is the unmapped low region both engines reserve: image writes
// below it are rejected.
const GuardSize = 4096

// Page is one captured page of working memory: its index and a copy of its
// bytes (shorter than PageSize only for the last page of a memory whose
// size is not a page multiple).
type Page struct {
	Idx  int32
	Data []byte
}

// Bytes reports the total bytes the pages carry.
func Bytes(pages []Page) int {
	n := 0
	for _, pg := range pages {
		n += len(pg.Data)
	}
	return n
}

// image is the pristine memory a template and its clones share. Only the
// written pages can be non-zero. refs counts the Mems holding it; the last
// one to release it returns its buffer to the pool.
type image struct {
	buf     []byte
	written []bool
	pages   []int32 // the written pages, in first-write order
	refs    atomic.Int32
}

// Mem is one engine's working memory. Engines embed it by value and index
// B directly, so loads and stores stay on a flat slice; every store must
// call MarkDirty for the bytes it writes.
type Mem struct {
	B          []byte
	img        *image
	dirty      []bool
	dirtyPages []int32
	mark       []bool // Matches' scratch page set, all false between calls
}

// New returns a memory of size bytes over a fresh all-zero image, both
// taken from the pool of zero buffers.
func New(size int) Mem {
	img := &image{buf: get(size), written: make([]bool, numPages(size))}
	img.refs.Store(1)
	return Mem{B: get(size), img: img, dirty: make([]bool, numPages(size))}
}

func numPages(size int) int { return (size + PageSize - 1) >> PageShift }

// Clone returns a memory sharing m's image on a buffer of its own. The
// buffer comes from the zero pool, so it differs from the image exactly on
// the image's written pages; those start dirty and the first Reset copies
// only them. Clone is safe to call concurrently with other Clones and with
// runs of m, but not with image writes.
func (m *Mem) Clone() Mem {
	m.img.refs.Add(1)
	c := Mem{B: get(len(m.B)), img: m.img, dirty: make([]bool, len(m.dirty))}
	for _, p := range m.img.pages {
		c.dirty[p] = true
	}
	c.dirtyPages = append([]int32(nil), m.img.pages...)
	return c
}

// Released reports whether Release was called.
func (m *Mem) Released() bool { return m.img == nil }

// Release zeroes the pages of the buffer that can be non-zero, returns it
// to the pool, and drops m's reference to the image, returning the image
// to the pool too when m held the last one. The memory is unusable
// afterwards. Releasing a released memory does nothing.
func (m *Mem) Release() {
	img := m.img
	if img == nil {
		return
	}
	m.clearPages(m.dirtyPages)
	m.clearPages(img.pages)
	put(m.B)
	if img.refs.Add(-1) == 0 {
		clearPages(img.buf, img.pages)
		put(img.buf)
	}
	*m = Mem{}
}

func (m *Mem) clearPages(pages []int32) { clearPages(m.B, pages) }

func clearPages(b []byte, pages []int32) {
	for _, p := range pages {
		lo, hi := pageRange(p, len(b))
		clear(b[lo:hi])
	}
}

func pageRange(p int32, size int) (lo, hi int) {
	lo = int(p) << PageShift
	return lo, min(lo+PageSize, size)
}

// SetImage copies data into the image at addr; every Reset starts from the
// image. The image must not be shared with a live clone: the clone's
// buffer would no longer match it.
func (m *Mem) SetImage(addr uint64, data []byte) error {
	img := m.img
	if addr < GuardSize || addr+uint64(len(data)) > uint64(len(img.buf)) {
		return fmt.Errorf("image write [%d,%d) out of range", addr, addr+uint64(len(data)))
	}
	if img.refs.Load() > 1 {
		panic("pagemem: image write while the image is shared with a clone")
	}
	copy(img.buf[addr:], data)
	if len(data) == 0 {
		return nil
	}
	for p := addr >> PageShift; p <= (addr+uint64(len(data))-1)>>PageShift; p++ {
		if !img.written[p] {
			img.written[p] = true
			img.pages = append(img.pages, int32(p))
		}
	}
	m.MarkDirty(addr, uint64(len(data)))
	return nil
}

// WriteWordImage stores a 64-bit little-endian word into the image.
func (m *Mem) WriteWordImage(addr uint64, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return m.SetImage(addr, b[:])
}

// Image returns the pristine image. Callers must not modify it.
func (m *Mem) Image() []byte { return m.img.buf }

// fnv-64a parameters, and the prime raised to PageSize: fnv-64a over n
// zero bytes multiplies its state by prime^n.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

var fnvPagePrime = fnvPow(PageSize)

func fnvPow(n int) uint64 {
	p := uint64(1)
	for range n {
		p *= fnvPrime
	}
	return p
}

// ImageDigest returns the fnv-64a digest of Image() without reading the
// pages no image write touched: they are all zero, so each costs one
// multiply.
func (m *Mem) ImageDigest() uint64 {
	img := m.img
	h := uint64(fnvOffset)
	for p, w := range img.written {
		lo, hi := pageRange(int32(p), len(img.buf))
		switch {
		case w:
			for _, b := range img.buf[lo:hi] {
				h ^= uint64(b)
				h *= fnvPrime
			}
		case hi-lo == PageSize:
			h *= fnvPagePrime
		default:
			h *= fnvPow(hi - lo)
		}
	}
	return h
}

// MarkDirty records that [ea, ea+size) is about to be written. Callers have
// already bounds-checked the access.
func (m *Mem) MarkDirty(ea, size uint64) {
	for p := ea >> PageShift; p <= (ea+size-1)>>PageShift; p++ {
		if !m.dirty[p] {
			m.dirty[p] = true
			m.dirtyPages = append(m.dirtyPages, int32(p))
		}
	}
}

// Reset brings the buffer back to the image, copying only dirty pages.
func (m *Mem) Reset() {
	for _, p := range m.dirtyPages {
		lo, hi := pageRange(p, len(m.B))
		copy(m.B[lo:hi], m.img.buf[lo:hi])
		m.dirty[p] = false
	}
	m.dirtyPages = m.dirtyPages[:0]
}

// CaptureSince copies the dirty pages, the buffer's delta against the
// image, appending to buf[:0]. It shares the page buffers of prev, an
// earlier capture, wherever a page still holds the same bytes. Page
// buffers are never written after capture, so captures may share them.
// Within one run the dirty pages only grow, so prev's pages line up with
// the current ones by position; a page that does not line up is copied.
func (m *Mem) CaptureSince(prev, buf []Page) []Page {
	pages := buf[:0]
	if pages == nil || cap(pages) < len(m.dirtyPages) {
		pages = make([]Page, 0, len(m.dirtyPages))
	}
	for i, p := range m.dirtyPages {
		lo, hi := pageRange(p, len(m.B))
		if i < len(prev) && prev[i].Idx == p && bytes.Equal(prev[i].Data, m.B[lo:hi]) {
			pages = append(pages, prev[i])
			continue
		}
		pages = append(pages, Page{Idx: p, Data: append([]byte(nil), m.B[lo:hi]...)})
	}
	return pages
}

// CaptureInto copies the dirty pages into the page buffers of buf, an
// earlier capture, and returns them, reusing buf's list and buffers
// wherever their capacity suffices. It shares no buffer with any other
// capture, so buf must own its buffers too: only a capture CaptureInto
// made may be passed back to it.
func (m *Mem) CaptureInto(buf []Page) []Page {
	old := buf[:cap(buf)]
	pages := buf[:0]
	if cap(pages) < len(m.dirtyPages) {
		pages = make([]Page, 0, len(m.dirtyPages))
	}
	for i, p := range m.dirtyPages {
		lo, hi := pageRange(p, len(m.B))
		var data []byte
		if i < len(old) {
			data = old[i].Data[:0]
		}
		pages = append(pages, Page{Idx: p, Data: append(data, m.B[lo:hi]...)})
	}
	return pages
}

// Restore resets the buffer to the image and overlays pages, leaving it
// bit-identical to the memory the pages were captured from.
func (m *Mem) Restore(pages []Page) {
	m.Reset()
	for _, pg := range pages {
		lo := int(pg.Idx) << PageShift
		copy(m.B[lo:lo+len(pg.Data)], pg.Data)
		if !m.dirty[pg.Idx] {
			m.dirty[pg.Idx] = true
			m.dirtyPages = append(m.dirtyPages, pg.Idx)
		}
	}
}

// Matches reports whether the buffer equals the image overlaid with pages,
// without allocating after its first call. The buffer equals the image
// outside its dirty pages, so only pages dirty on either side need a look:
// the captured pages against their bytes, and dirty pages the capture
// lacks against the image — a page written and then restored to its
// pristine bytes still matches.
func (m *Mem) Matches(pages []Page) bool {
	for _, pg := range pages {
		lo := int(pg.Idx) << PageShift
		if !bytes.Equal(m.B[lo:lo+len(pg.Data)], pg.Data) {
			return false
		}
	}
	if m.mark == nil {
		m.mark = make([]bool, len(m.dirty))
	}
	for _, pg := range pages {
		m.mark[pg.Idx] = true
	}
	ok := true
	for _, p := range m.dirtyPages {
		if m.mark[p] {
			continue
		}
		lo, hi := pageRange(p, len(m.B))
		if !bytes.Equal(m.B[lo:hi], m.img.buf[lo:hi]) {
			ok = false
			break
		}
	}
	for _, pg := range pages {
		m.mark[pg.Idx] = false
	}
	return ok
}

// PagesDiffer reports whether two captures describe different memories.
// A page in one capture but not the other is compared against the image,
// so a page touched and restored to its original bytes is no difference.
func (m *Mem) PagesDiffer(a, b []Page) bool {
	other := make(map[int32][]byte, len(b))
	for _, pg := range b {
		other[pg.Idx] = pg.Data
	}
	seen := make(map[int32]bool, len(a))
	for _, pg := range a {
		bd, ok := other[pg.Idx]
		if !ok {
			bd = m.imagePage(pg.Idx, len(pg.Data))
		}
		if !bytes.Equal(pg.Data, bd) {
			return true
		}
		seen[pg.Idx] = true
	}
	for _, pg := range b {
		if !seen[pg.Idx] && !bytes.Equal(pg.Data, m.imagePage(pg.Idx, len(pg.Data))) {
			return true
		}
	}
	return false
}

func (m *Mem) imagePage(idx int32, n int) []byte {
	lo := int(idx) << PageShift
	return m.img.buf[lo:min(lo+n, len(m.img.buf))]
}

// pools holds one sync.Pool of all-zero buffers per buffer size. A
// sync.Pool lets the GC reclaim idle buffers, so a long-lived process does
// not pin the memory of engines it no longer runs.
var pools sync.Map // int -> *sync.Pool of *[]byte

// get returns an all-zero buffer of size bytes.
func get(size int) []byte {
	if p, ok := pools.Load(size); ok {
		if b, _ := p.(*sync.Pool).Get().(*[]byte); b != nil {
			return *b
		}
	}
	return make([]byte, size)
}

// put returns an all-zero buffer to its pool.
func put(b []byte) {
	p, _ := pools.LoadOrStore(len(b), new(sync.Pool))
	p.(*sync.Pool).Put(&b)
}
