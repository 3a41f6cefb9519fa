package pagemem

import (
	"bytes"
	"hash/fnv"
	"testing"
)

// fuzzSize is not a page multiple, so the short last page is exercised.
const fuzzSize = 2*GuardSize + 3*PageSize + 100

// FuzzPageMem's bounds on input bytes and live memories per family.
const (
	maxOps  = 1024
	maxMems = 6
)

// family is one image and the memories sharing it, each beside a plain
// []byte model of what its buffer must hold.
type family struct {
	image  []byte // model of the image
	mems   []*Mem
	models [][]byte
	snaps  []snap
	// owned is the latest CaptureInto capture, whose buffers the next one
	// reuses.
	owned snap
}

// snap is a capture and a copy of the model it was taken from.
type snap struct {
	pages []Page
	model []byte
}

func newFamily(t *testing.T) *family {
	m := New(fuzzSize)
	checkZero(t, "fresh buffer", m.B)
	checkZero(t, "fresh image", m.Image())
	return &family{image: make([]byte, fuzzSize), mems: []*Mem{&m}, models: [][]byte{make([]byte, fuzzSize)}}
}

func checkZero(t *testing.T, what string, b []byte) {
	t.Helper()
	for i, v := range b {
		if v != 0 {
			t.Fatalf("%s: byte %d is %#x, want a zero buffer", what, i, v)
		}
	}
}

// check compares memory i with its model and the shared image with the
// image model, and checks the invariant Release relies on: outside its
// dirty pages a buffer equals the image. An operation changes at most one
// memory's buffer or dirty set, so a step checks that one.
func (f *family) check(t *testing.T, step, i int) {
	t.Helper()
	m := f.mems[i]
	if !bytes.Equal(m.B, f.models[i]) {
		t.Fatalf("step %d: memory %d differs from its model", step, i)
	}
	if !bytes.Equal(m.Image(), f.image) {
		t.Fatalf("step %d: image differs from its model", step)
	}
	for p := range m.dirty {
		lo, hi := pageRange(int32(p), len(m.B))
		if !m.dirty[p] && !bytes.Equal(m.B[lo:hi], f.image[lo:hi]) {
			t.Fatalf("step %d: memory %d page %d is clean but differs from the image", step, i, p)
		}
	}
	for _, mk := range m.mark {
		if mk {
			t.Fatalf("step %d: Matches left a page marked", step)
		}
	}
}

// FuzzPageMem drives random sequences of image writes, stores, resets,
// captures (shared and owned), restores, compares, clones, releases and
// re-acquisitions against a plain []byte model. Each operation reads its arguments from
// the input; a released family is replaced by a new one on recycled
// buffers, which must come back all zero.
func FuzzPageMem(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0x10, 0x20, 8, 0xAB, 2, 0, 1, 0, 0x30, 4, 0x11, 3, 0, 4, 0, 0})
	f.Add([]byte{0, 0x10, 0x00, 200, 0x5A, 5, 0, 1, 1, 0x12, 16, 0x77, 3, 1, 2, 1, 4, 0, 1, 6, 1, 6, 0, 0, 0x20, 0x10, 4, 0x01})
	f.Add([]byte{1, 0x22, 0x0F, 3, 0xFF, 3, 0, 1, 0x22, 0x10, 9, 0x00, 3, 0, 7, 0, 1, 8, 0, 1, 6, 0, 1, 0x40, 0x00, 16, 0xC3})
	f.Add([]byte{0, 0x3F, 0xF0, 255, 0x99, 5, 0, 5, 1, 1, 2, 0xF0, 7, 0x44, 6, 0, 2, 1, 3, 2, 4, 0, 2, 6, 1, 6, 2, 6, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Every step compares every live memory with its model, so bound
		// the steps and the clones to keep one input's cost small.
		ops = ops[:min(len(ops), maxOps)]
		fam := newFamily(t)
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			v := int(ops[0])
			ops = ops[1:]
			return v
		}
		// cur is the memory the step operated on.
		cur := 0
		pick := func() int {
			cur = next() % len(fam.mems)
			return cur
		}
		for step := 0; len(ops) > 0; step++ {
			cur = 0
			switch next() % 10 {
			case 0: // image write through the first memory, when unshared
				addr := uint64(next()<<8|next()) % fuzzSize
				n, v := next()%300, byte(next())
				data := bytes.Repeat([]byte{v}, n)
				if len(fam.mems) > 1 {
					break
				}
				err := fam.mems[0].SetImage(addr, data)
				if ok := addr >= GuardSize && addr+uint64(n) <= fuzzSize; ok != (err == nil) {
					t.Fatalf("step %d: SetImage(%d, %d bytes) = %v", step, addr, n, err)
				}
				if err == nil {
					copy(fam.image[addr:], data)
					fam.snaps, fam.owned = nil, snap{} // captures are deltas against the old image
				}
				checkImageDigest(t, fam.mems[0])
			case 1: // store
				i := pick()
				addr := uint64(next()<<8|next()) % fuzzSize
				n := 1 + next()%16
				if addr+uint64(n) > fuzzSize {
					n = int(fuzzSize - addr)
				}
				v := byte(next())
				fam.mems[i].MarkDirty(addr, uint64(n))
				for k := 0; k < n; k++ {
					fam.mems[i].B[int(addr)+k] = v
					fam.models[i][int(addr)+k] = v
				}
			case 2: // reset
				i := pick()
				fam.mems[i].Reset()
				copy(fam.models[i], fam.image)
			case 3: // capture, sharing unchanged pages with the latest capture
				// of whichever memory took it
				i := pick()
				var prev []Page
				if n := len(fam.snaps); n > 0 {
					prev = fam.snaps[n-1].pages
				}
				fam.snaps = append(fam.snaps, snap{fam.mems[i].CaptureSince(prev, nil), append([]byte(nil), fam.models[i]...)})
			case 4: // restore, from the owned capture too
				i, k := pick(), next()
				snaps := fam.snaps
				if fam.owned.model != nil {
					snaps = append(snaps[:len(snaps):len(snaps)], fam.owned)
				}
				if len(snaps) == 0 {
					break
				}
				s := snaps[k%len(snaps)]
				fam.mems[i].Restore(s.pages)
				copy(fam.models[i], s.model)
			case 5: // compare live memory and two captures
				i, a, b := pick(), next(), next()
				if len(fam.snaps) == 0 {
					break
				}
				sa, sb := fam.snaps[a%len(fam.snaps)], fam.snaps[b%len(fam.snaps)]
				if got, want := fam.mems[i].Matches(sa.pages), bytes.Equal(fam.models[i], sa.model); got != want {
					t.Fatalf("step %d: Matches = %v, want %v", step, got, want)
				}
				if got, want := fam.mems[i].PagesDiffer(sa.pages, sb.pages), !bytes.Equal(sa.model, sb.model); got != want {
					t.Fatalf("step %d: PagesDiffer = %v, want %v", step, got, want)
				}
			case 6: // clone: a zero buffer that resets to the image
				i := pick()
				if len(fam.mems) == maxMems {
					break
				}
				c := fam.mems[i].Clone()
				checkZero(t, "clone buffer", c.B)
				fam.mems = append(fam.mems, &c)
				fam.models = append(fam.models, make([]byte, fuzzSize))
				cur = len(fam.mems) - 1
			case 7: // release one memory; the last one takes the image along
				i := pick()
				fam.mems[i].Release()
				fam.mems[i].Release() // a second release does nothing
				if !fam.mems[i].Released() {
					t.Fatalf("step %d: released memory reports live", step)
				}
				fam.mems = append(fam.mems[:i], fam.mems[i+1:]...)
				fam.models = append(fam.models[:i], fam.models[i+1:]...)
				if len(fam.mems) == 0 {
					fam = newFamily(t) // re-acquire from the pool
				}
				cur = 0
			case 8: // release everything and start over on recycled buffers
				for _, m := range fam.mems {
					m.Release()
				}
				fam = newFamily(t)
			case 9: // capture into the owned capture's buffers
				i := pick()
				fam.owned = snap{fam.mems[i].CaptureInto(fam.owned.pages), append(fam.owned.model[:0], fam.models[i]...)}
				if !fam.mems[i].Matches(fam.owned.pages) {
					t.Fatalf("step %d: memory does not match its own capture", step)
				}
			}
			fam.check(t, step, cur)
		}
		for i := range fam.mems {
			fam.check(t, -1, i)
		}
		for _, m := range fam.mems {
			m.Release()
		}
	})
}

// TestReleaseZeroesEveryTouchedPage pins the zero-buffer invariant on one
// recycled pair directly: image pages, stored pages, the stack top and
// the short last page all come back zero.
func TestReleaseZeroesEveryTouchedPage(t *testing.T) {
	m := New(fuzzSize)
	if err := m.SetImage(GuardSize, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	for _, ea := range []uint64{GuardSize + PageSize, fuzzSize - 8, fuzzSize - 1} {
		m.MarkDirty(ea, 1)
		m.B[ea] = 0xFF
	}
	c := m.Clone()
	c.Reset()
	c.MarkDirty(fuzzSize-1, 1)
	c.B[fuzzSize-1] = 7
	buf, img, cbuf := m.B, m.Image(), c.B
	m.Release()
	if img[GuardSize] != 1 {
		t.Fatal("the image was cleared while a clone still holds it")
	}
	c.Release()
	checkZero(t, "released buffer", buf)
	checkZero(t, "released clone buffer", cbuf)
	checkZero(t, "released image", img)
}

// TestImageWriteWhileSharedPanics: a clone's buffer tracks the image it
// was cloned from, so writing a shared image is a bug.
func TestImageWriteWhileSharedPanics(t *testing.T) {
	m := New(fuzzSize)
	c := m.Clone()
	defer func() {
		if recover() == nil {
			t.Error("image write on a shared image did not panic")
		}
		c.Release()
		if err := m.SetImage(GuardSize, []byte{1}); err != nil {
			t.Errorf("write after the clone's release: %v", err)
		}
		m.Release()
	}()
	_ = m.SetImage(GuardSize, []byte{1})
}

// checkImageDigest compares the zero-skipping ImageDigest with fnv-64a over
// the whole image.
func checkImageDigest(t *testing.T, m *Mem) {
	t.Helper()
	h := fnv.New64a()
	h.Write(m.Image())
	if got, want := m.ImageDigest(), h.Sum64(); got != want {
		t.Fatalf("ImageDigest = %016x, fnv-64a over the image %016x", got, want)
	}
}

// TestImageDigestSkipsZeroPages: the digest that multiplies through
// unwritten pages equals fnv-64a over the image for an image with no
// written pages, a written page holding only zeros, a short last page left
// unwritten and one written, and sizes below and at one page.
func TestImageDigestSkipsZeroPages(t *testing.T) {
	writes := []struct {
		name string
		addr uint64
		data []byte
	}{
		{"no written pages", 0, nil},
		{"a written page of zeros", GuardSize + PageSize, make([]byte, PageSize)},
		{"bytes across a page boundary", GuardSize + PageSize - 3, []byte{1, 2, 3, 4, 5, 6}},
		{"the short last page", fuzzSize - 7, []byte{0xEE, 0, 0x11}},
	}
	for _, size := range []int{fuzzSize, 2 * GuardSize, GuardSize + 1} {
		m := New(size)
		if size%PageSize != 0 && len(m.img.written)*PageSize == size {
			t.Fatalf("size %d: expected a short last page", size)
		}
		for _, w := range writes {
			if w.addr+uint64(len(w.data)) > uint64(size) {
				continue
			}
			if w.data != nil {
				if err := m.SetImage(w.addr, w.data); err != nil {
					t.Fatalf("size %d, %s: %v", size, w.name, err)
				}
			}
			checkImageDigest(t, &m)
		}
		m.Release()
	}
}

// TestCaptureIntoReusesBuffers: a capture into an earlier CaptureInto
// capture of as many pages allocates nothing, and restores exactly.
func TestCaptureIntoReusesBuffers(t *testing.T) {
	m := New(fuzzSize)
	defer m.Release()
	for _, ea := range []uint64{GuardSize, GuardSize + 3*PageSize, fuzzSize - 1} {
		m.MarkDirty(ea, 1)
		m.B[ea] = 1
	}
	pages := m.CaptureInto(nil)
	v := byte(2)
	if n := testing.AllocsPerRun(10, func() {
		m.MarkDirty(GuardSize, 1)
		m.B[GuardSize] = v
		v++
		pages = m.CaptureInto(pages)
	}); n != 0 {
		t.Errorf("CaptureInto allocated %v times per capture", n)
	}
	want := append([]byte(nil), m.B...)
	m.Reset()
	m.Restore(pages)
	if !bytes.Equal(m.B, want) {
		t.Error("restoring the reused capture does not give back the memory")
	}
}
