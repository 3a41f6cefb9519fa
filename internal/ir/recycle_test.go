package ir

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ferrum/internal/pagemem"
)

// recycleSrc sums n image words from base and stores each running sum one
// page above its word, so a run reads image pages and dirties others.
const recycleSrc = `
func @main(%base, %n) {
entry:
  %i = alloca 1
  %acc = alloca 1
  store 0, %i
  store 0, %acc
  br loop
loop:
  %iv = load %i
  %c = icmp slt %iv, %n
  br %c, body, done
body:
  %off = mul %iv, 8
  %p = add %base, %off
  %v = load %p
  %a = load %acc
  %a2 = add %a, %v
  store %a2, %acc
  %q = add %p, 4096
  store %a2, %q
  %i2 = add %iv, 1
  store %i2, %i
  br loop
done:
  %r = load %acc
  out %r
  ret %r
}
`

const (
	recycleBase  = 8192
	recycleWords = 200
)

// recycleSizes hands each TestEquivRecycledMemory invocation a memory size
// no earlier interpreter in the process used. The zero-buffer pool is
// keyed by size, so the first interpreter of that size is built on fresh
// allocations and the later ones on buffers recycled from released ones.
var recycleSizes atomic.Int64

// memRun is what an interpreter's memory can influence over a campaign's
// life: the golden result, the page delta of every checkpoint, injected
// runs resumed from the nearest checkpoint, and the final memory.
type memRun struct {
	golden  RunResult
	pages   [][]pagemem.Page
	resumed []RunResult
	final   []byte
}

func runMemRun(ip *Interp) memRun {
	opts := RunOpts{Args: []uint64{recycleBase, recycleWords}, MaxSteps: stepCap * 10}
	r := memRun{golden: ip.Run(opts)}
	o := opts
	o.Checkpoints = &Checkpoints{Every: max(1, r.golden.Sites/12)}
	ip.Run(o)
	snaps := o.Checkpoints.Snaps
	for _, s := range snaps {
		r.pages = append(r.pages, s.pages)
	}
	const faults = 16
	for i := uint64(0); i < faults; i++ {
		o := opts
		o.Fault = &Fault{Site: i * r.golden.Sites / faults, Bit: uint(i*13) % 64}
		for _, s := range snaps {
			if s.Sites() <= o.Fault.Site {
				o.Resume = s
			}
		}
		r.resumed = append(r.resumed, ip.Run(o))
	}
	r.final = append([]byte(nil), ip.mem.B...)
	return r
}

func loadInterp(t *testing.T, size int, seed int64) *Interp {
	t.Helper()
	ip, err := NewInterp(mustParse(t, recycleSrc), size)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for w := uint64(0); w < recycleWords; w++ {
		if err := ip.WriteWordImage(recycleBase+8*w, rng.Uint64()>>8); err != nil {
			t.Fatal(err)
		}
	}
	return ip
}

// dirtyTenant is a previous tenant of the buffers: an interpreter and its
// clone over a different image, with extra image words on random pages,
// each run and then stored to on random pages, the stack top and the
// subject's image pages. It returns the buffers Release hands back.
func dirtyTenant(t *testing.T, rng *rand.Rand, size int) [][]byte {
	ip := loadInterp(t, size, rng.Int63())
	for k := 0; k < 32; k++ {
		if err := ip.WriteWordImage(uint64(GuardSize+rng.Intn(size-GuardSize-8))&^7, rng.Uint64()); err != nil {
			t.Fatal(err)
		}
	}
	c := ip.Clone()
	bufs := [][]byte{ip.mem.B, ip.mem.Image(), c.mem.B}
	for _, e := range []*Interp{ip, c} {
		e.Run(RunOpts{Args: []uint64{recycleBase, recycleWords}})
		eas := []uint64{uint64(size) - 8, recycleBase, recycleBase + pagemem.PageSize}
		for k := 0; k < 64; k++ {
			eas = append(eas, GuardSize+uint64(rng.Intn(size-GuardSize-8)))
		}
		for _, ea := range eas {
			e.mem.MarkDirty(ea, 8)
			for i := uint64(0); i < 8; i++ {
				e.mem.B[ea+i] = byte(rng.Intn(255) + 1)
			}
		}
	}
	c.Release()
	ip.Release()
	return bufs
}

func sharesBuffer(ip *Interp, bufs [][]byte) bool {
	for _, b := range bufs {
		if &b[0] == &ip.mem.B[0] || &b[0] == &ip.mem.Image()[0] {
			return true
		}
	}
	return false
}

// TestEquivRecycledMemory: an interpreter built on buffers recycled from a
// released one — whose tenant loaded a different image and dirtied random
// pages, the stack top and the image pages — is bit-identical to one built
// on fresh allocations: the golden result, every snapshot's pages, resumed
// injected runs and the final memory. So are its clones, a clone whose
// template was released first, and interpreters built, cloned, run and
// released concurrently.
func TestEquivRecycledMemory(t *testing.T) {
	size := memSize + int(recycleSizes.Add(1))*pagemem.PageSize
	const seed = 5

	fresh := loadInterp(t, size, seed)
	want := runMemRun(fresh)
	fresh.Release()
	if want.golden.Outcome != OutcomeOK || len(want.pages) == 0 {
		t.Fatalf("vacuous reference: %+v, %d snapshots", want.golden, len(want.pages))
	}
	check := func(t *testing.T, what string, got memRun) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s differs from the fresh interpreter:\ngolden %+v\nwant   %+v", what, got.golden, want.golden)
		}
	}

	t.Run("recycled", func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		recycled := 0
		// The race detector makes sync.Pool drop some buffers, so retry
		// until an interpreter demonstrably reused a tenant's buffer.
		for round := 0; round < 20 && (round < 3 || recycled == 0); round++ {
			bufs := dirtyTenant(t, rng, size)
			ip := loadInterp(t, size, seed)
			if sharesBuffer(ip, bufs) {
				recycled++
			}
			c := ip.Clone()
			check(t, "recycled template", runMemRun(ip))
			check(t, "recycled clone", runMemRun(c))
			c.Release()
			ip.Release()
		}
		if recycled == 0 {
			t.Fatal("no interpreter was built on a recycled buffer")
		}
	})

	t.Run("clone outlives template", func(t *testing.T) {
		ip := loadInterp(t, size, seed)
		ip.Run(RunOpts{Args: []uint64{recycleBase, recycleWords}})
		c := ip.Clone()
		ip.Release()
		// Recycle the template's buffer into another interpreter while the
		// clone still runs on the shared image.
		other := loadInterp(t, size, seed+1)
		other.Run(RunOpts{Args: []uint64{recycleBase, recycleWords}})
		check(t, "clone of a released template", runMemRun(c))
		other.Release()
		c.Release()
	})

	t.Run("concurrent", func(t *testing.T) {
		// Each worker builds, clones, runs and releases interpreters of its
		// own, and also clones one shared template, whose image reference
		// count the workers then update concurrently.
		mod := mustParse(t, recycleSrc)
		shared := loadInterp(t, size, seed)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					rng := rand.New(rand.NewSource(seed))
					ip, err := NewInterp(mod, size)
					for k := uint64(0); err == nil && k < recycleWords; k++ {
						err = ip.WriteWordImage(recycleBase+8*k, rng.Uint64()>>8)
					}
					if err != nil {
						t.Error(err)
						return
					}
					clones := []*Interp{ip.Clone(), ip.Clone(), shared.Clone()}
					opts := RunOpts{Args: []uint64{recycleBase, recycleWords}, MaxSteps: stepCap * 10}
					for k, c := range clones {
						f := &Fault{Site: uint64(w*7+i*3+k) % want.golden.Sites, Bit: uint(w + k)}
						c.Run(RunOpts{Args: opts.Args, MaxSteps: opts.MaxSteps, Fault: f})
						if got := c.Run(opts); !reflect.DeepEqual(got, want.golden) {
							t.Errorf("worker %d: concurrent clone golden differs", w)
						}
						c.Release()
					}
					if got := ip.Run(opts); !reflect.DeepEqual(got, want.golden) {
						t.Errorf("worker %d: concurrent template golden differs", w)
					}
					ip.Release()
				}
			}(w)
		}
		wg.Wait()
		opts := RunOpts{Args: []uint64{recycleBase, recycleWords}, MaxSteps: stepCap * 10}
		if got := shared.Run(opts); !reflect.DeepEqual(got, want.golden) {
			t.Error("shared template golden differs after concurrent clones")
		}
		shared.Release()
	})
}

// TestRecycledMemoryUseAfterRelease: running, restoring or cloning a
// released interpreter is a bug and panics with a message saying so; a
// second Release does nothing.
func TestRecycledMemoryUseAfterRelease(t *testing.T) {
	ip := newTestInterp(t, sumSrc)
	c := &Checkpoints{Every: 1}
	ip.Run(RunOpts{Args: []uint64{5}, Checkpoints: c})
	s := c.Snaps[0]
	ip.Release()
	ip.Release()
	for op, use := range map[string]func(){
		"Run":     func() { ip.Run(RunOpts{Args: []uint64{5}}) },
		"Restore": func() { _ = ip.Restore(s) },
		"Clone":   func() { ip.Clone() },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, op+" on a released Interp") {
					t.Errorf("%s after Release: panic %q", op, msg)
				}
			}()
			use()
		}()
	}
}
