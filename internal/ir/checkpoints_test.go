package ir

import (
	"math/bits"
	"reflect"
	"testing"
)

// TestIRSnapshotThinningMatchesFixedK pins the IR engine's thinning
// schedule as TestSnapshotThinningMatchesFixedK pins the machine's:
// whatever bounds it runs under, it ends at a power-of-two spacing and
// keeps exactly the snapshots — frame for frame and page for page — that a
// fixed-spacing run at that final spacing captures, on the segment loop and
// on the reference loop alike. Under a count bound Max alone, a run of at
// least Max sites keeps between Max/2 and Max of them; under a byte bound,
// their total Size stays within it unless one snapshot alone exceeds it.
func TestIRSnapshotThinningMatchesFixedK(t *testing.T) {
	for _, tc := range []struct {
		name string
		ip   *Interp
		args []uint64
	}{
		{"stores", loadInterp(t, memSize, 5), []uint64{recycleBase, recycleWords}},
		{"fib", newTestInterp(t, fibSrc), []uint64{9}},
	} {
		ip := tc.ip
		base := RunOpts{Args: tc.args, MaxSteps: stepCap * 10}
		golden := ip.Run(base)
		sites := golden.Sites
		if golden.Outcome != OutcomeOK || sites < 64 {
			t.Fatalf("%s: golden = %+v", tc.name, golden)
		}
		for _, b := range []struct{ max, maxBytes int }{
			{2, 0}, {3, 0}, {10, 0}, {64, 0}, {int(sites), 0}, {int(sites) + 1, 0},
			{0, 16 << 10}, {1000, 4 << 10}, {0, 1},
		} {
			opts := base
			c := &Checkpoints{Every: 1, Max: b.max, MaxBytes: b.maxBytes}
			opts.Checkpoints = c
			if got := ip.Run(opts); !reflect.DeepEqual(got, golden) {
				t.Fatalf("%s %+v: thinning changed the RunResult", tc.name, b)
			}
			if bits.OnesCount64(c.Every) != 1 {
				t.Errorf("%s %+v: final spacing %d is not a power of two", tc.name, b, c.Every)
			}
			if n := uint64(len(c.Snaps)); n != sites/c.Every {
				t.Errorf("%s %+v: kept %d snapshots at K=%d over %d sites", tc.name, b, n, c.Every, sites)
			}
			if b.max > 0 && b.maxBytes == 0 && sites >= uint64(b.max) && (len(c.Snaps) < b.max/2 || len(c.Snaps) > b.max) {
				t.Errorf("%s %+v: kept %d snapshots, want within [%d, %d]", tc.name, b, len(c.Snaps), b.max/2, b.max)
			}
			if b.maxBytes > 0 && len(c.Snaps) > 1 {
				total := 0
				for _, s := range c.Snaps {
					total += s.Size()
				}
				if total > b.maxBytes {
					t.Errorf("%s %+v: kept %d bytes", tc.name, b, total)
				}
			}
			fixedOpts := base
			fixed := &Checkpoints{Every: c.Every}
			fixedOpts.Checkpoints = fixed
			ip.Run(fixedOpts)
			if !reflect.DeepEqual(c.Snaps, fixed.Snaps) {
				t.Errorf("%s %+v: thinned schedule differs from the fixed K=%d one", tc.name, b, c.Every)
			}
			refOpts := base
			rc := &Checkpoints{Every: 1, Max: b.max, MaxBytes: b.maxBytes}
			refOpts.Checkpoints = rc
			ip.RunReference(refOpts)
			if rc.Every != c.Every || !reflect.DeepEqual(rc.Snaps, c.Snaps) {
				t.Errorf("%s %+v: reference loop thinned to K=%d, segment loop to K=%d", tc.name, b, rc.Every, c.Every)
			}
		}
	}
}
