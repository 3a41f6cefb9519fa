package machine

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ferrum/internal/asm"
	"ferrum/internal/pagemem"
	"ferrum/internal/rodinia"
)

// recycleSizes hands each TestEquivRecycledMemory invocation a memory size
// no earlier machine in the process used. The zero-buffer pool is keyed by
// size, so the first machine of that size is built on fresh allocations
// and the later ones on buffers recycled from released machines.
var recycleSizes atomic.Int64

// memRun is what a machine's memory can influence over a campaign's life:
// the golden Result, the page delta of every golden checkpoint and faulty
// boundary, injected runs that end at a golden checkpoint, the boundary
// diffs against the golden schedule, and the terminal architectural state.
type memRun struct {
	golden    Result
	pages     [][]pagemem.Page
	converged []Result
	nConv     uint64
	diffs     []BoundaryDiff
	final     archState
}

func runMemRun(m *Machine, args []uint64) memRun {
	opts := RunOpts{Args: args, MaxSteps: equivMaxSteps}
	r := memRun{golden: m.Run(opts)}
	g := recordGolden(m, opts, max(1, r.golden.DynSites/16))
	for _, s := range g.Checkpoints {
		r.pages = append(r.pages, s.pages)
	}
	before := m.Converged()
	const faults = 16
	for i := uint64(0); i < faults; i++ {
		f := &Fault{Site: i * r.golden.DynSites / faults, Bit: uint(i*13) % 64}
		o := opts
		o.Fault, o.Golden = f, g
		var next *Snapshot
		for _, s := range g.Checkpoints {
			if s.Sites() <= f.Site {
				o.Resume = s
			} else if next == nil {
				next = s
			}
		}
		r.converged = append(r.converged, m.Run(o))
		if next == nil {
			continue
		}
		b := m.Run(RunOpts{Args: args, MaxSteps: equivMaxSteps, Fault: f, StopAtSites: next.Sites()})
		if b.Boundary != nil {
			r.pages = append(r.pages, b.Boundary.pages)
			r.diffs = append(r.diffs, m.DiffSnapshots(b.Boundary, next))
		}
	}
	r.nConv = m.Converged() - before
	r.final = fingerprint(m)
	return r
}

func recycleBench(t *testing.T, name, tech string) (*asm.Program, *rodinia.Instance) {
	t.Helper()
	b, _ := rodinia.ByName(name)
	inst, err := b.Instantiate(1, 99)
	if err != nil {
		t.Fatal(err)
	}
	return equivPrograms(t, name)[tech], inst
}

func loadMachine(t *testing.T, prog *asm.Program, inst *rodinia.Instance, size int) *Machine {
	t.Helper()
	m, err := New(prog, size)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Setup(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// dirtyTenant is a previous tenant of the buffers: a machine and its clone
// over another benchmark's image, with extra image words on random pages,
// each run and then stored to on random pages, the stack top and the
// subject's image pages. It returns the buffers Release hands back.
func dirtyTenant(t *testing.T, rng *rand.Rand, prog *asm.Program, inst *rodinia.Instance, size int) [][]byte {
	m := loadMachine(t, prog, inst, size)
	for k := 0; k < 32; k++ {
		addr := GuardSize + uint64(rng.Intn(size-GuardSize-8))
		if err := m.WriteWordImage(addr&^7, rng.Uint64()); err != nil {
			t.Fatal(err)
		}
	}
	c := m.Clone()
	bufs := [][]byte{m.mem.B, m.mem.Image(), c.mem.B}
	for _, e := range []*Machine{m, c} {
		e.Run(RunOpts{Args: inst.Args, MaxSteps: equivMaxSteps})
		eas := []uint64{uint64(size) - 8, rodinia.DataBase, rodinia.DataBase + pagemem.PageSize}
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
	m.Release()
	return bufs
}

func sharesBuffer(m *Machine, bufs [][]byte) bool {
	for _, b := range bufs {
		if &b[0] == &m.mem.B[0] || &b[0] == &m.mem.Image()[0] {
			return true
		}
	}
	return false
}

// TestEquivRecycledMemory: a machine built on buffers recycled from a
// released machine — whose tenant loaded a different image and dirtied
// random pages, the stack top and the image pages — is bit-identical to
// one built on fresh allocations: the golden Result, every snapshot's
// pages, converged-run Results, DiffSnapshots and the terminal state. So
// are its clones, a clone whose template was released first, machines
// built, cloned, run and released concurrently, and machines instantiated
// concurrently from one shared Decoded.
func TestEquivRecycledMemory(t *testing.T) {
	size := equivMemSize + int(recycleSizes.Add(1))*pagemem.PageSize
	prog, inst := recycleBench(t, "bfs", "ferrum")
	tenantProg, tenantInst := recycleBench(t, "knn", "raw")

	fresh := loadMachine(t, prog, inst, size)
	want := runMemRun(fresh, inst.Args)
	fresh.Release()
	if want.nConv == 0 || len(want.diffs) == 0 {
		t.Fatalf("vacuous reference: %d converged runs, %d boundary diffs", want.nConv, len(want.diffs))
	}
	check := func(t *testing.T, what string, got memRun) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s differs from the fresh machine:\ngolden %+v\nwant   %+v", what, got.golden, want.golden)
		}
	}

	t.Run("recycled", func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		recycled := 0
		// The race detector makes sync.Pool drop some buffers, so retry
		// until a machine demonstrably reused a tenant's buffer.
		for round := 0; round < 20 && (round < 3 || recycled == 0); round++ {
			bufs := dirtyTenant(t, rng, tenantProg, tenantInst, size)
			m := loadMachine(t, prog, inst, size)
			if sharesBuffer(m, bufs) {
				recycled++
			}
			c := m.Clone()
			check(t, "recycled template", runMemRun(m, inst.Args))
			check(t, "recycled clone", runMemRun(c, inst.Args))
			c.Release()
			m.Release()
		}
		if recycled == 0 {
			t.Fatal("no machine was built on a recycled buffer")
		}
	})

	t.Run("clone outlives template", func(t *testing.T) {
		m := loadMachine(t, prog, inst, size)
		m.Run(RunOpts{Args: inst.Args, MaxSteps: equivMaxSteps})
		c := m.Clone()
		m.Release()
		// Recycle the template's buffer into another machine while the
		// clone still runs on the shared image.
		other := loadMachine(t, tenantProg, tenantInst, size)
		other.Run(RunOpts{Args: tenantInst.Args, MaxSteps: equivMaxSteps})
		check(t, "clone of a released template", runMemRun(c, inst.Args))
		other.Release()
		c.Release()
	})

	t.Run("concurrent", func(t *testing.T) {
		// Each worker builds, clones, runs and releases machines of its
		// own, and also clones one shared template, whose image reference
		// count the workers then update concurrently.
		shared := loadMachine(t, prog, inst, size)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					m, err := New(prog, size)
					if err == nil {
						err = inst.Setup(m)
					}
					if err != nil {
						t.Error(err)
						return
					}
					clones := []*Machine{m.Clone(), m.Clone(), shared.Clone()}
					opts := RunOpts{Args: inst.Args, MaxSteps: equivMaxSteps}
					for k, c := range clones {
						f := &Fault{Site: uint64(w*7+i*3+k) % want.golden.DynSites, Bit: uint(w + k)}
						c.Run(RunOpts{Args: inst.Args, MaxSteps: equivMaxSteps, Fault: f})
						if got := c.Run(opts); !reflect.DeepEqual(got, want.golden) {
							t.Errorf("worker %d: concurrent clone golden differs", w)
						}
						c.Release()
					}
					if got := m.Run(opts); !reflect.DeepEqual(got, want.golden) {
						t.Errorf("worker %d: concurrent template golden differs", w)
					}
					m.Release()
				}
			}(w)
		}
		wg.Wait()
		if got := shared.Run(RunOpts{Args: inst.Args, MaxSteps: equivMaxSteps}); !reflect.DeepEqual(got, want.golden) {
			t.Error("shared template golden differs after concurrent clones")
		}
		shared.Release()
	})

	t.Run("decoded once", func(t *testing.T) {
		// Machines instantiated concurrently from one Decoded, each
		// released while its siblings still run, match the fresh machine;
		// one of another memory size matches New at that size.
		d, err := Decode(prog)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 2; i++ {
					m, err := d.Instantiate(size)
					if err == nil {
						err = inst.Setup(m)
					}
					if err != nil {
						t.Error(err)
						return
					}
					if got := runMemRun(m, inst.Args); !reflect.DeepEqual(got, want) {
						t.Errorf("worker %d: machine instantiated from a shared Decoded differs", w)
					}
					m.Release()
				}
			}(w)
		}
		wg.Wait()
		bigger := size + pagemem.PageSize
		m, err := d.Instantiate(bigger)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Setup(m); err != nil {
			t.Fatal(err)
		}
		ref := loadMachine(t, prog, inst, bigger)
		opts := RunOpts{Args: inst.Args, MaxSteps: equivMaxSteps}
		if got, want := m.Run(opts), ref.Run(opts); !reflect.DeepEqual(got, want) || fingerprint(m) != fingerprint(ref) {
			t.Errorf("Instantiate(%d) differs from New at that size", bigger)
		}
		ref.Release()
		m.Release()
	})
}

// TestRecycledMemoryUseAfterRelease: running, restoring, snapshotting or
// cloning a released machine is a bug and panics with a message saying
// so; a second Release does nothing.
func TestRecycledMemoryUseAfterRelease(t *testing.T) {
	m, err := New(mustParse(t, snapSrc), memSize)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(RunOpts{})
	s := m.Snapshot()
	m.Release()
	m.Release()
	for op, use := range map[string]func(){
		"Run":      func() { m.Run(RunOpts{}) },
		"Restore":  func() { _ = m.Restore(s) },
		"Snapshot": func() { m.Snapshot() },
		"Clone":    func() { m.Clone() },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, op+" on a released Machine") {
					t.Errorf("%s after Release: panic %q", op, msg)
				}
			}()
			use()
		}()
	}
}
