package machine

import (
	"reflect"
	"testing"

	"ferrum/internal/pagemem"
)

// snapSrc writes to memory inside the loop so snapshots carry dirty pages,
// and reads the values back so corrupted stores surface in the output.
const snapSrc = `
	.globl	main
main:
	movq	$8192, %rbp
	movq	$0, %rax
	movq	$1, %rcx
.Lloop:
	cmpq	$20, %rcx
	jg	.Ldone
	leaq	(%rbp,%rcx,8), %rdx
	movq	%rcx, (%rdx)
	addq	(%rdx), %rax
	addq	$1, %rcx
	jmp	.Lloop
.Ldone:
	out	%rax
	movq	8(%rbp), %rbx
	out	%rbx
	hlt
`

func sameResult(t *testing.T, got, want Result, ctx string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: resumed result differs\ngot  %+v\nwant %+v", ctx, got, want)
	}
}

// TestSnapshotResumeEquivalence pins the tentpole invariant at machine
// level: for every fault site and a schedule of snapshots, a run resumed
// from the latest snapshot at or before the fault site must be
// bit-identical (full Result struct) to the same faulted run from scratch.
func TestSnapshotResumeEquivalence(t *testing.T) {
	prog := mustParse(t, snapSrc)
	m, err := New(prog, memSize)
	if err != nil {
		t.Fatal(err)
	}
	golden := m.Run(RunOpts{})
	if golden.Outcome != OutcomeOK || golden.DynSites == 0 {
		t.Fatalf("golden = %+v", golden)
	}

	for _, every := range []uint64{1, 7, golden.DynSites} {
		snaps := checkpoints(m, RunOpts{}, every)
		if len(snaps) == 0 {
			t.Fatalf("K=%d: no snapshots", every)
		}
		for site := uint64(0); site < golden.DynSites; site++ {
			f := &Fault{Site: site, Bit: 4}
			direct := m.Run(RunOpts{Fault: f})
			var snap *Snapshot
			for _, s := range snaps {
				if s.Sites() <= site {
					snap = s
				}
			}
			if snap == nil {
				continue // site precedes the first snapshot
			}
			resumed := m.Run(RunOpts{Fault: f, Resume: snap})
			sameResult(t, resumed, direct, "K="+itoa(every)+" site="+itoa(site))
		}
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestSnapshotResumeAfterAbnormalRuns checks a worker-machine lifecycle:
// resumed runs that crash or detect must not poison the next resume on the
// same machine instance.
func TestSnapshotResumeAfterAbnormalRuns(t *testing.T) {
	prog := mustParse(t, snapSrc)
	m, err := New(prog, memSize)
	if err != nil {
		t.Fatal(err)
	}
	snaps := checkpoints(m, RunOpts{}, 5)
	golden := m.Run(RunOpts{})

	snap := snaps[0]
	// Hunt a crashing fault among high bits of the loaded pointer sites.
	var crashed bool
	for site := snap.Sites(); site < golden.DynSites && !crashed; site++ {
		for _, bit := range []uint{40, 50, 62} {
			f := &Fault{Site: site, Bit: bit}
			direct := m.Run(RunOpts{Fault: f})
			resumed := m.Run(RunOpts{Fault: f, Resume: snap})
			sameResult(t, resumed, direct, "abnormal")
			if direct.Outcome == OutcomeCrash {
				crashed = true
			}
			// A clean run resumed right after must still be golden.
			clean := m.Run(RunOpts{Resume: snap})
			if clean.Outcome != OutcomeOK || !reflect.DeepEqual(clean.Output, golden.Output) {
				t.Fatalf("clean resume after faulted run = %+v", clean)
			}
		}
	}
	if !crashed {
		t.Log("no crashing fault found; equivalence still checked")
	}
}

// TestSnapshotMultiBitResume runs multi-bit (Extra) faults through the
// resume path.
func TestSnapshotMultiBitResume(t *testing.T) {
	prog := mustParse(t, snapSrc)
	m, err := New(prog, memSize)
	if err != nil {
		t.Fatal(err)
	}
	snaps := checkpoints(m, RunOpts{}, 3)
	snap := snaps[1]
	for site := snap.Sites(); site < snap.Sites()+6; site++ {
		f := &Fault{Site: site, Bit: 2, Extra: []uint{17, 33}}
		direct := m.Run(RunOpts{Fault: f})
		resumed := m.Run(RunOpts{Fault: f, Resume: snap})
		sameResult(t, resumed, direct, "multi-bit")
	}
}

// TestRestoreMismatch rejects snapshots from a different configuration.
func TestRestoreMismatch(t *testing.T) {
	prog := mustParse(t, snapSrc)
	m1, _ := New(prog, memSize)
	m2, _ := New(prog, memSize*2)
	snaps := checkpoints(m1, RunOpts{}, 1)
	if err := m2.Restore(snaps[0]); err == nil {
		t.Fatal("restore across memory sizes accepted")
	}
	r := m2.Run(RunOpts{Resume: snaps[0]})
	if r.Outcome != OutcomeCrash {
		t.Fatalf("resume with mismatched snapshot = %v", r.Outcome)
	}
}

// TestDirtyPageReset pins the satellite optimisation: repeated runs must
// stay correct with dirty-page (not full-image) resets, including after
// SetMemImage invalidates the sync.
func TestDirtyPageReset(t *testing.T) {
	prog := mustParse(t, snapSrc)
	m, err := New(prog, memSize)
	if err != nil {
		t.Fatal(err)
	}
	first := m.Run(RunOpts{})
	for i := 0; i < 3; i++ {
		again := m.Run(RunOpts{})
		sameResult(t, again, first, "repeat run")
	}
	// Mutating the image must both invalidate the sync and change results:
	// slot 1 of the array at 8192 is re-stored by the program, but the sum
	// is unchanged... so poke a word the program reads but never writes.
	if err := m.WriteWordImage(8192+8, 99); err != nil {
		t.Fatal(err)
	}
	// The program overwrites slot 1 before reading it, so results must be
	// *identical* — the poke is clobbered iff the reset actually reapplied
	// the program's stores on a fresh image rather than leaking state.
	again := m.Run(RunOpts{})
	sameResult(t, again, first, "after SetMemImage")
}

// TestSnapshotSharedAcrossMachines restores one snapshot into a second
// machine instance built from the same program and image, the campaign
// worker-pool pattern.
func TestSnapshotSharedAcrossMachines(t *testing.T) {
	prog := mustParse(t, snapSrc)
	m1, _ := New(prog, memSize)
	m2, _ := New(prog, memSize)
	snaps := checkpoints(m1, RunOpts{}, 4)
	golden := m1.Run(RunOpts{})
	for _, snap := range snaps {
		direct := m1.Run(RunOpts{Fault: &Fault{Site: snap.Sites(), Bit: 9}})
		resumed := m2.Run(RunOpts{Fault: &Fault{Site: snap.Sites(), Bit: 9}, Resume: snap})
		sameResult(t, resumed, direct, "cross-machine, fault on checkpoint site")
	}
	clean := m2.Run(RunOpts{})
	if !reflect.DeepEqual(clean, golden) {
		t.Fatalf("fresh run on m2 after resumes = %+v, want %+v", clean, golden)
	}
}

// TestSitesHintPrealloc checks that a site-recording run preallocates its site
// slice at the previous run's site count.
func TestSitesHintPrealloc(t *testing.T) {
	prog := mustParse(t, snapSrc)
	m, _ := New(prog, memSize)
	golden := m.Run(RunOpts{})
	res := m.Run(RunOpts{RecordSiteStatics: true})
	if uint64(cap(res.SiteStatics)) != golden.DynSites {
		t.Errorf("lastSites prealloc cap = %d, want %d", cap(res.SiteStatics), golden.DynSites)
	}
}

// recordGolden runs prog's golden run on m with a checkpoint every k sites
// and returns it as a RunOpts.Golden schedule.
func recordGolden(m *Machine, opts RunOpts, k uint64) *Golden {
	g := &Golden{}
	opts.Checkpoints = &Checkpoints{Every: k}
	g.End = m.Run(opts)
	g.Checkpoints = opts.Checkpoints.Snaps
	return g
}

// checkpoints runs opts on m with a checkpoint every k sites and returns
// the snapshots.
func checkpoints(m *Machine, opts RunOpts, k uint64) []*Snapshot {
	opts.Checkpoints = &Checkpoints{Every: k}
	m.Run(opts)
	return opts.Checkpoints.Snaps
}

// convergeRun runs opts with and without the golden schedule on m and
// requires field-for-field equal Results. It reports whether the scheduled
// run ended at a golden checkpoint.
func convergeRun(t *testing.T, m *Machine, opts RunOpts, g *Golden, ctx string) (Result, bool) {
	t.Helper()
	want := m.Run(opts)
	before := m.Converged()
	opts.Golden = g
	got := m.Run(opts)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Result with golden schedule differs\ngot  %+v\nwant %+v", ctx, got, want)
	}
	return got, m.Converged() > before
}

// TestSnapshotConvergeSnapSrc: every fault at every site of snapSrc, under
// several schedules (K=1 included) and from scratch or resumed, returns the
// unscheduled Result, and some of them do end early.
func TestSnapshotConvergeSnapSrc(t *testing.T) {
	m, err := New(mustParse(t, snapSrc), memSize)
	if err != nil {
		t.Fatal(err)
	}
	golden := m.Run(RunOpts{})
	var converged int
	for _, k := range []uint64{1, 7, golden.DynSites} {
		g := recordGolden(m, RunOpts{}, k)
		for site := uint64(0); site < golden.DynSites; site++ {
			for _, f := range []*Fault{{Site: site, Bit: 4}, {Site: site, Bit: 1, Extra: []uint{40}}} {
				ctx := "K=" + itoa(k) + " site=" + itoa(site)
				if _, ok := convergeRun(t, m, RunOpts{Fault: f}, g, ctx); ok {
					converged++
				}
				var resume *Snapshot
				for _, s := range g.Checkpoints {
					if s.Sites() <= site {
						resume = s
					}
				}
				if resume != nil {
					convergeRun(t, m, RunOpts{Fault: f, Resume: resume}, g, ctx+" resumed")
				}
			}
		}
	}
	if converged == 0 {
		t.Error("no faulted run converged; the early exit went unexercised")
	}
}

// pristineSrc: a fault at site 0 moves the store-then-restore pair from the
// page at 8192 to the page at 24576. Both pages end with their pristine
// bytes, the address register is then reloaded, and from site 3 on the
// faulty state equals the golden one although its dirty page sets differ.
const pristineSrc = `
	.globl	main
main:
	movq	$8192, %rdx
	movq	(%rdx), %r8
	movq	$7, (%rdx)
	movq	%r8, (%rdx)
	movq	$8192, %rdx
	movq	$1, %rax
	movq	$2, %rbx
	movq	$3, %rcx
	out	%rax
	hlt
`

func TestSnapshotConvergeRestoredPage(t *testing.T) {
	m, err := New(mustParse(t, pristineSrc), memSize)
	if err != nil {
		t.Fatal(err)
	}
	g := recordGolden(m, RunOpts{}, 1)
	r, ok := convergeRun(t, m, RunOpts{Fault: &Fault{Site: 0, Bit: 14}}, g, "restored page")
	if !ok {
		t.Fatal("a state whose only difference is a page restored to its pristine bytes did not converge")
	}
	if !r.Injected || r.Outcome != OutcomeOK {
		t.Errorf("converged Result = %+v", r)
	}
}

// timingSrc: a fault at site 0 sends the run down the imulq arm instead of
// the addq arm. Both arms compute the same rbx and retire the same
// instruction and site counts, and the flags are re-derived after the
// join, so the states re-agree in everything but the cycle clock.
const timingSrc = `
	.globl	main
main:
	movq	$0, %rax
	testq	%rax, %rax
	jne	.Lslow
	addq	$0, %rbx
	jmp	.Ljoin
.Lslow:
	imulq	$1, %rbx
	jmp	.Ljoin
.Ljoin:
	movq	$0, %rax
	testq	%rax, %rax
	movq	$5, %rcx
	movq	$6, %rdx
	out	%rcx
	hlt
`

// TestSnapshotConvergeNeedsEqualClock: architecturally equal but with a
// different cycle clock is not converged — the golden Cycles would be wrong.
func TestSnapshotConvergeNeedsEqualClock(t *testing.T) {
	m, err := New(mustParse(t, timingSrc), memSize)
	if err != nil {
		t.Fatal(err)
	}
	g := recordGolden(m, RunOpts{}, 1)
	f := &Fault{Site: 0, Bit: 0}
	r, ok := convergeRun(t, m, RunOpts{Fault: f}, g, "timing")
	if ok {
		t.Fatal("a state differing only in the cycle clock converged")
	}
	if r.Cycles == g.End.Cycles || !reflect.DeepEqual(r.Output, g.End.Output) {
		t.Fatalf("timingSrc no longer isolates the clock: cycles %v vs golden %v", r.Cycles, g.End.Cycles)
	}
	// At the last checkpoint the architectural state is clean.
	last := g.Checkpoints[len(g.Checkpoints)-1]
	b := m.Run(RunOpts{Fault: f, StopAtSites: last.Sites()})
	if d := m.DiffSnapshots(b.Boundary, last); !d.Clean() {
		t.Fatalf("timingSrc boundary differs architecturally: %+v", d)
	}
}

// outputSrc: a fault at site 0 corrupts the first emitted value, then rax
// is reloaded, so only the output stream keeps the difference.
const outputSrc = `
	.globl	main
main:
	movq	$5, %rax
	out	%rax
	movq	$5, %rax
	movq	$1, %rbx
	movq	$2, %rcx
	out	%rbx
	hlt
`

func TestSnapshotConvergeNeedsEqualOutput(t *testing.T) {
	m, err := New(mustParse(t, outputSrc), memSize)
	if err != nil {
		t.Fatal(err)
	}
	g := recordGolden(m, RunOpts{}, 1)
	f := &Fault{Site: 0, Bit: 3}
	r, ok := convergeRun(t, m, RunOpts{Fault: f}, g, "output")
	if ok {
		t.Fatal("a state differing only in its output stream converged")
	}
	if reflect.DeepEqual(r.Output, g.End.Output) {
		t.Fatal("outputSrc fault no longer corrupts the output")
	}
	last := g.Checkpoints[len(g.Checkpoints)-1]
	b := m.Run(RunOpts{Fault: f, StopAtSites: last.Sites()})
	if d := m.DiffSnapshots(b.Boundary, last); !d.Output || d.PC || d.Dyn || d.Mem || d.XMM ||
		len(d.GPRs) != 0 || len(d.Flags) != 0 {
		t.Fatalf("outputSrc boundary diff = %+v, want output only", d)
	}
}

// TestSnapshotConvergePastLastCheckpoint: a fault after the last golden
// checkpoint has nothing to converge at and runs to the end.
func TestSnapshotConvergePastLastCheckpoint(t *testing.T) {
	m, err := New(mustParse(t, snapSrc), memSize)
	if err != nil {
		t.Fatal(err)
	}
	golden := m.Run(RunOpts{})
	g := recordGolden(m, RunOpts{}, golden.DynSites/3)
	last := g.Checkpoints[len(g.Checkpoints)-1].Sites()
	for site := last; site < golden.DynSites; site++ {
		if _, ok := convergeRun(t, m, RunOpts{Fault: &Fault{Site: site, Bit: 0}}, g, "past last site="+itoa(site)); ok {
			t.Errorf("site %d: converged with no checkpoint after the fault", site)
		}
	}
}

// TestSnapshotConvergeIgnored: the schedule is ignored when it cannot
// stand in for the rest of the run — an observer is attached, the golden
// run did not halt, or the step budget is smaller than the golden run.
func TestSnapshotConvergeIgnored(t *testing.T) {
	m, err := New(mustParse(t, pristineSrc), memSize)
	if err != nil {
		t.Fatal(err)
	}
	g := recordGolden(m, RunOpts{}, 1)
	f := &Fault{Site: 0, Bit: 14}
	if _, ok := convergeRun(t, m, RunOpts{Fault: f}, g, "baseline"); !ok {
		t.Fatal("baseline fault did not converge")
	}
	hung := *g
	hung.End.Outcome = OutcomeHang
	for name, opts := range map[string]RunOpts{
		"profile":     {Fault: f, Profile: true},
		"recordsites": {Fault: f, RecordSiteStatics: true},
		"budget":      {Fault: f, MaxSteps: g.End.DynInsts - 1},
	} {
		if _, ok := convergeRun(t, m, opts, g, name); ok {
			t.Errorf("%s: converged", name)
		}
	}
	if _, ok := convergeRun(t, m, RunOpts{Fault: f}, &hung, "hung golden"); ok {
		t.Error("converged against a golden run that did not halt")
	}
}

// TestSnapshotConvergeCompare pins the in-place compare field by field: a
// machine restored to a snapshot matches it, and changing any one piece of
// state — including only the cycle clock or one in-flight span — breaks
// the match. The compare allocates nothing.
func TestSnapshotConvergeCompare(t *testing.T) {
	m, err := New(mustParse(t, snapSrc), memSize)
	if err != nil {
		t.Fatal(err)
	}
	g := recordGolden(m, RunOpts{}, 11)
	s := g.Checkpoints[len(g.Checkpoints)/2]
	if len(s.pages) == 0 {
		t.Fatal("checkpoint has no dirty pages")
	}
	spare := 4096 * 8 // a page snapSrc never touches
	for name, mutate := range map[string]func(){
		"none":          func() {},
		"pc":            func() { m.pc++ },
		"dyn":           func() { m.dyn++ },
		"sites":         func() { m.sites++ },
		"cycles":        func() { m.cycles += 0.5 },
		"scalar span":   func() { m.scalarSpan += 0.25 },
		"vector span":   func() { m.vectorSpan += 0.25 },
		"gpr":           func() { m.gpr[3] ^= 1 },
		"xmm":           func() { m.x[2][5] ^= 1 },
		"flag":          func() { m.flags[1] = !m.flags[1] },
		"output":        func() { m.output = append(m.output, 0) },
		"snapshot page": func() { m.mem.B[int(s.pages[0].Idx)<<pagemem.PageShift] ^= 1 },
		"other page": func() {
			m.mem.MarkDirty(uint64(spare), 1)
			m.mem.B[spare] ^= 1
		},
		"other page restored": func() {
			m.mem.MarkDirty(uint64(spare), 1)
		},
		"injection stamps": func() { m.injected, m.injCycles, m.injDyn = true, 3, 4 },
	} {
		if err := m.Restore(s); err != nil {
			t.Fatal(err)
		}
		mutate()
		want := name == "none" || name == "other page restored" || name == "injection stamps"
		if got := m.matchesSnapshot(s); got != want {
			t.Errorf("%s: matchesSnapshot = %v, want %v", name, got, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { m.matchesSnapshot(s) }); allocs != 0 {
			t.Errorf("%s: compare allocates %v times", name, allocs)
		}
	}
}
