package machine

import "testing"

// TestEquivBoundaryStop pins the compose-mode invariant at machine level: a
// run stopped at a checkpoint's site count (OutcomeBoundary) must capture
// exactly the state the checkpoint recorded — same digest — on the block
// loop and on the per-instruction reference engine, and whether the run
// started cold or resumed from an earlier snapshot.
func TestEquivBoundaryStop(t *testing.T) {
	prog := mustParse(t, snapSrc)
	m, err := New(prog, memSize)
	if err != nil {
		t.Fatal(err)
	}
	golden := m.Run(RunOpts{})
	if golden.Outcome != OutcomeOK || golden.DynSites == 0 {
		t.Fatalf("golden = %+v", golden)
	}
	snaps := checkpoints(m, RunOpts{}, 5)
	if len(snaps) < 2 {
		t.Fatalf("only %d snapshots", len(snaps))
	}
	for i, snap := range snaps {
		stop := snap.Sites()
		// The block loop and the reference engine must stop at the
		// identical machine state.
		fast := m.Run(RunOpts{StopAtSites: stop})
		slow := m.runReference(RunOpts{StopAtSites: stop, RecordFnSpans: true})
		if fast.Outcome != OutcomeBoundary || slow.Outcome != OutcomeBoundary {
			t.Fatalf("snap %d: outcomes %v/%v, want boundary", i, fast.Outcome, slow.Outcome)
		}
		want := snap.Digest()
		if got := fast.Boundary.Digest(); got != want {
			t.Errorf("snap %d: fast boundary digest %x != checkpoint %x", i, got, want)
		}
		if got := slow.Boundary.Digest(); got != want {
			t.Errorf("snap %d: slow boundary digest %x != checkpoint %x", i, got, want)
		}
		if i > 0 {
			resumed := m.Run(RunOpts{Resume: snaps[i-1], StopAtSites: stop})
			if resumed.Outcome != OutcomeBoundary {
				t.Fatalf("snap %d: resumed outcome %v", i, resumed.Outcome)
			}
			if got := resumed.Boundary.Digest(); got != want {
				t.Errorf("snap %d: resumed boundary digest %x != checkpoint %x", i, got, want)
			}
		}
	}
}

// TestEquivBoundaryFaulted checks that a faulted run stopped at a boundary
// carries the injection bookkeeping and diffs cleanly against the golden
// checkpoint, and that resuming from the boundary snapshot finishes the run
// with the same result as the unstopped faulted run.
func TestEquivBoundaryFaulted(t *testing.T) {
	prog := mustParse(t, snapSrc)
	m, err := New(prog, memSize)
	if err != nil {
		t.Fatal(err)
	}
	golden := m.Run(RunOpts{})
	snaps := checkpoints(m, RunOpts{}, 10)
	stop := snaps[0].Sites()
	for site := uint64(0); site < stop; site++ {
		for _, bit := range []uint{0, 7, 31} {
			f := &Fault{Site: site, Bit: bit}
			full := m.Run(RunOpts{Fault: f})
			part := m.Run(RunOpts{Fault: f, StopAtSites: stop})
			if part.Outcome != OutcomeBoundary {
				// The fault derailed the run inside the section (crash, hang,
				// detection, early exit); nothing to compose.
				continue
			}
			if !part.Injected {
				t.Fatalf("site %d bit %d: boundary run not injected", site, bit)
			}
			d := m.DiffSnapshots(part.Boundary, snaps[0])
			if !d.Comparable {
				t.Fatalf("site %d bit %d: boundary not comparable", site, bit)
			}
			cont := m.Run(RunOpts{Resume: part.Boundary})
			if cont.Outcome != full.Outcome || !cont.Injected {
				t.Errorf("site %d bit %d: continued outcome %v (inj=%v) != full %v",
					site, bit, cont.Outcome, cont.Injected, full.Outcome)
			}
			if len(cont.Output) != len(full.Output) {
				t.Errorf("site %d bit %d: continued output len %d != full %d",
					site, bit, len(cont.Output), len(full.Output))
			} else {
				for i := range cont.Output {
					if cont.Output[i] != full.Output[i] {
						t.Errorf("site %d bit %d: continued output differs at %d", site, bit, i)
						break
					}
				}
			}
			if d.Clean() && len(d.GPRs) == 0 {
				// A bit-exact boundary must imply the golden tail.
				if cont.Outcome != OutcomeOK {
					t.Errorf("site %d bit %d: clean boundary but outcome %v", site, bit, cont.Outcome)
				}
			}
			_ = golden
		}
	}
}

// TestSnapshotDigestStability: the digest is a pure function of captured
// state — identical across re-recordings — and sensitive to state changes.
func TestSnapshotDigestStability(t *testing.T) {
	prog := mustParse(t, snapSrc)
	m, err := New(prog, memSize)
	if err != nil {
		t.Fatal(err)
	}
	record := func() []*Snapshot {
		snaps := checkpoints(m, RunOpts{}, 7)
		return snaps
	}
	a, b := record(), record()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("snapshot counts %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].Digest() != b[i].Digest() {
			t.Errorf("snapshot %d: digest not reproducible", i)
		}
		for j := i + 1; j < len(a); j++ {
			if a[i].Digest() == a[j].Digest() {
				t.Errorf("snapshots %d and %d: digest collision", i, j)
			}
		}
	}
}
