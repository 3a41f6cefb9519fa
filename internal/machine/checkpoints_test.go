package machine

import (
	"math/bits"
	"reflect"
	"testing"
)

// TestSnapshotThinningMatchesFixedK pins the thinning schedule: whatever
// bounds it runs under, it ends at a power-of-two spacing and keeps exactly
// the snapshots — field for field and page for page — that a fixed-spacing
// run at that final spacing captures, on the block loop and on the
// reference engine alike. Under a count bound Max alone, a run of at least Max
// sites keeps between Max/2 and Max of them; under a byte bound, their
// total Size stays within it unless one snapshot alone exceeds it.
func TestSnapshotThinningMatchesFixedK(t *testing.T) {
	progs := equivPrograms(t, "bfs")
	for _, tech := range []string{"raw", "ferrum"} {
		m, args := equivMachine(t, "bfs", progs[tech])
		ref, _ := equivMachine(t, "bfs", progs[tech])
		base := RunOpts{Args: args, MaxSteps: equivMaxSteps}
		golden := m.Run(base)
		sites := golden.DynSites
		for _, b := range []struct{ max, maxBytes int }{
			{2, 0}, {3, 0}, {10, 0}, {64, 0}, {int(sites), 0}, {int(sites) + 1, 0},
			{0, 64 << 10}, {1000, 16 << 10}, {0, 1},
		} {
			opts := base
			c := &Checkpoints{Every: 1, Max: b.max, MaxBytes: b.maxBytes}
			opts.Checkpoints = c
			if got := m.Run(opts); !reflect.DeepEqual(got, golden) {
				t.Fatalf("%s %+v: thinning changed the Result", tech, b)
			}
			if bits.OnesCount64(c.Every) != 1 {
				t.Errorf("%s %+v: final spacing %d is not a power of two", tech, b, c.Every)
			}
			if n := uint64(len(c.Snaps)); n != sites/c.Every {
				t.Errorf("%s %+v: kept %d snapshots at K=%d over %d sites", tech, b, n, c.Every, sites)
			}
			if b.max > 0 && b.maxBytes == 0 && sites >= uint64(b.max) && (len(c.Snaps) < b.max/2 || len(c.Snaps) > b.max) {
				t.Errorf("%s %+v: kept %d snapshots, want within [%d, %d]", tech, b, len(c.Snaps), b.max/2, b.max)
			}
			if b.maxBytes > 0 && len(c.Snaps) > 1 {
				total := 0
				for _, s := range c.Snaps {
					total += s.Size()
				}
				if total > b.maxBytes {
					t.Errorf("%s %+v: kept %d bytes", tech, b, total)
				}
			}
			_, _, fixed := runCkpts(m.Run, base, c.Every)
			if !reflect.DeepEqual(c.Snaps, fixed) {
				t.Errorf("%s %+v: thinned schedule differs from the fixed K=%d one", tech, b, c.Every)
			}
			refOpts := base
			rc := &Checkpoints{Every: 1, Max: b.max, MaxBytes: b.maxBytes}
			refOpts.Checkpoints = rc
			ref.runReference(refOpts)
			if rc.Every != c.Every || !reflect.DeepEqual(rc.Snaps, c.Snaps) {
				t.Errorf("%s %+v: reference engine thinned to K=%d, block loop to K=%d", tech, b, rc.Every, c.Every)
			}
		}
	}
}
