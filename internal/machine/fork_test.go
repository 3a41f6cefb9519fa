package machine

import (
	"testing"

	"ferrum/internal/rodinia"
)

// TestForkSnapshotMatchesCheckpoint: the fork a faulted run takes at its
// fault site (RunOpts.Fork) is the golden state at that site count, the
// snapshot a CheckpointEvery: 1 golden run keeps there, by Digest and by a
// DiffSnapshots that reports Clean. It holds on the block loop and on the
// reference engine, for runs from program start, resumed from a golden
// checkpoint and resumed from an earlier fork, single- and multi-bit; and
// a run resumed from the fork ends exactly as one from program start.
func TestForkSnapshotMatchesCheckpoint(t *testing.T) {
	// A budget that covers a few thousand sites keeps the K=1 schedule
	// small; the snapshots before the budget runs out are golden states.
	const steps = 6000
	for _, bench := range rodinia.Names() {
		for _, tech := range []string{"raw", "ferrum"} {
			prog := equivPrograms(t, bench)[tech]
			engines := []struct {
				name string
				m    *Machine
				run  func(*Machine, RunOpts) Result
			}{
				{"block", nil, (*Machine).Run},
				{"reference", nil, (*Machine).runReference},
			}
			for _, e := range engines {
				m, args := equivMachine(t, bench, prog)
				run := func(o RunOpts) Result { return e.run(m, o) }
				_, _, snaps := runCkpts(run, RunOpts{Args: args, MaxSteps: steps}, 1)
				n := uint64(len(snaps))
				if n < 16 {
					t.Fatalf("%s/%s %s: only %d snapshots", bench, tech, e.name, n)
				}
				// snaps[i] is the golden state after site i retired.
				for i, s := range snaps {
					if s.Sites() != uint64(i)+1 {
						t.Fatalf("%s/%s %s: snapshot %d at %d sites", bench, tech, e.name, i, s.Sites())
					}
				}
				var prev *Snapshot // the last fork, resumed from next
				for site := uint64(0); site+1 < n; site += 1 + site/4 {
					var direct *Result
					for _, from := range []string{"fork", "start", "checkpoint"} {
						ctx := bench + "/" + tech + " " + e.name + " site=" + itoa(site) + " from " + from
						f := &Fault{Site: site, Bit: 5}
						if site%3 == 1 {
							f.Extra = []uint{0, 17}
						}
						opts := RunOpts{Args: args, MaxSteps: steps, Fault: f, Fork: new(Snapshot)}
						switch from {
						case "checkpoint":
							if site == 0 {
								continue
							}
							opts.Resume = snaps[site/2]
						case "fork":
							if prev == nil {
								continue
							}
							opts.Resume = prev
						}
						r := run(opts)
						if !r.Injected {
							t.Fatalf("%s: the fault was not applied: %+v", ctx, r)
						}
						want := snaps[site]
						if got := opts.Fork; got.Digest() != want.Digest() || !m.DiffSnapshots(got, want).Clean() {
							t.Fatalf("%s: fork at %d sites differs from the golden checkpoint at %d: %+v",
								ctx, got.Sites(), want.Sites(), m.DiffSnapshots(got, want))
						}
						if from == "start" {
							prev = opts.Fork
						}
						// The next site's plan resumed from the fork ends as
						// it does from program start, within the same budget.
						next := RunOpts{Args: args, MaxSteps: steps, Fault: &Fault{Site: site + 1, Bit: 9}}
						if direct == nil {
							r := run(next)
							direct = &r
						}
						next.Resume = opts.Fork
						sameResult(t, run(next), *direct, ctx)
					}
				}
				m.Release()
			}
		}
	}
}
