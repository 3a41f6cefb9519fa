package ir

import (
	"reflect"
	"testing"
)

const fibSrc = `
func @fib(%n) {
entry:
  %c = icmp sle %n, 1
  br %c, base, rec
base:
  ret %n
rec:
  %n1 = sub %n, 1
  %n2 = sub %n, 2
  %a = call @fib(%n1)
  %b = call @fib(%n2)
  %r = add %a, %b
  ret %r
}

func @main(%n) {
entry:
  %r = call @fib(%n)
  out %r
  ret %r
}
`

const stepCap = 20_000

func newTestInterp(t *testing.T, src string) *Interp {
	t.Helper()
	ip, err := NewInterp(mustParse(t, src), memSize)
	if err != nil {
		t.Fatalf("NewInterp: %v", err)
	}
	return ip
}

func sameRunResult(t *testing.T, got, want RunResult, ctx string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: resumed result differs\ngot  %+v\nwant %+v", ctx, got, want)
	}
}

// TestIRSnapshotResumeEquivalence pins the tentpole invariant at IR level
// on a memory-heavy loop: any faulted run resumed from a snapshot at or
// before its site is bit-identical to the same run from scratch.
func TestIRSnapshotResumeEquivalence(t *testing.T) {
	ip := newTestInterp(t, sumSrc)
	args := []uint64{12}
	golden := ip.Run(RunOpts{Args: args, MaxSteps: stepCap})
	if golden.Outcome != OutcomeOK || golden.Sites == 0 {
		t.Fatalf("golden = %+v", golden)
	}
	for _, every := range []uint64{1, 5, golden.Sites} {
		ckpts := &Checkpoints{Every: every}
		ip.Run(RunOpts{Args: args, MaxSteps: stepCap, Checkpoints: ckpts})
		snaps := ckpts.Snaps
		if len(snaps) == 0 {
			t.Fatalf("K=%d: no snapshots", every)
		}
		for site := uint64(0); site < golden.Sites; site++ {
			for _, bit := range []uint{0, 13, 63} {
				f := &Fault{Site: site, Bit: bit}
				direct := ip.Run(RunOpts{Args: args, Fault: f, MaxSteps: stepCap})
				var snap *Snapshot
				for _, s := range snaps {
					if s.Sites() <= site {
						snap = s
					}
				}
				if snap == nil {
					continue
				}
				resumed := ip.Run(RunOpts{Fault: f, Resume: snap, MaxSteps: stepCap})
				sameRunResult(t, resumed, direct, "sum loop")
			}
		}
	}
}

// TestIRSnapshotRecursion snapshots mid-recursion, so multiple frames (and
// their environments and saved stack pointers) must round-trip.
func TestIRSnapshotRecursion(t *testing.T) {
	ip := newTestInterp(t, fibSrc)
	args := []uint64{9}
	golden := ip.Run(RunOpts{Args: args, MaxSteps: stepCap})
	if golden.Outcome != OutcomeOK || golden.Output[0] != 34 {
		t.Fatalf("golden = %+v", golden)
	}
	ckpts := &Checkpoints{Every: 3}
	ip.Run(RunOpts{Args: args, MaxSteps: stepCap, Checkpoints: ckpts})
	snaps := ckpts.Snaps
	// Restore into a *different* interpreter instance (the worker-pool
	// pattern) and check clean and faulted resumes.
	ip2 := newTestInterp(t, fibSrc)
	for _, snap := range snaps {
		clean := ip2.Run(RunOpts{Resume: snap, MaxSteps: stepCap})
		if clean.Outcome != OutcomeOK || clean.Output[0] != 34 {
			t.Fatalf("clean resume from sites=%d: %+v", snap.Sites(), clean)
		}
		f := &Fault{Site: snap.Sites(), Bit: 1} // fault exactly on the snapshot site
		direct := ip.Run(RunOpts{Args: args, Fault: f, MaxSteps: stepCap})
		resumed := ip2.Run(RunOpts{Fault: f, Resume: snap, MaxSteps: stepCap})
		sameRunResult(t, resumed, direct, "fib")
	}
}

// TestIRSnapshotImmutable checks that a resumed run cannot mutate the
// snapshot it started from: two successive resumes from one snapshot give
// identical results even though the first faulted run scribbled on memory
// and its environments.
func TestIRSnapshotImmutable(t *testing.T) {
	ip := newTestInterp(t, sumSrc)
	args := []uint64{20}
	ckpts := &Checkpoints{Every: 10}
	ip.Run(RunOpts{Args: args, MaxSteps: stepCap, Checkpoints: ckpts})
	snaps := ckpts.Snaps
	snap := snaps[0]
	f := &Fault{Site: snap.Sites() + 2, Bit: 60}
	first := ip.Run(RunOpts{Fault: f, Resume: snap, MaxSteps: stepCap})
	second := ip.Run(RunOpts{Fault: f, Resume: snap, MaxSteps: stepCap})
	sameRunResult(t, second, first, "repeat resume")
}

// TestIRRestoreMismatch rejects snapshots from a different configuration.
func TestIRRestoreMismatch(t *testing.T) {
	ip := newTestInterp(t, sumSrc)
	ckpts := &Checkpoints{Every: 1}
	ip.Run(RunOpts{Args: []uint64{6}, MaxSteps: stepCap, Checkpoints: ckpts})
	snaps := ckpts.Snaps
	other, err := NewInterp(mustParse(t, sumSrc), memSize*2)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(snaps[0]); err == nil {
		t.Fatal("restore across memory sizes accepted")
	}
	foreign := newTestInterp(t, fibSrc)
	r := foreign.Run(RunOpts{Resume: snaps[0], MaxSteps: stepCap})
	if r.Outcome != OutcomeCrash {
		t.Fatalf("resume into foreign module = %v", r.Outcome)
	}
}

// TestIRDirtyPageReset pins the shared satellite: repeated runs with
// dirty-page resets stay correct, including across SetMemImage.
func TestIRDirtyPageReset(t *testing.T) {
	ip := newTestInterp(t, sumSrc)
	args := []uint64{15}
	first := ip.Run(RunOpts{Args: args, MaxSteps: stepCap})
	for i := 0; i < 3; i++ {
		sameRunResult(t, ip.Run(RunOpts{Args: args, MaxSteps: stepCap}), first, "repeat run")
	}
	if err := ip.WriteWordImage(GuardSize, 7); err != nil {
		t.Fatal(err)
	}
	// The poked word is outside what the program reads, so the result is
	// unchanged — but only if the reset resynced correctly.
	sameRunResult(t, ip.Run(RunOpts{Args: args, MaxSteps: stepCap}), first, "after SetMemImage")
}
