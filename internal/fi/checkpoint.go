package fi

import (
	"cmp"
	"math"
	"slices"

	"ferrum/internal/pagemem"
)

// The dense auto schedule of a converging asm campaign targets
// ckptPerRootSample·√Samples snapshots, and holds at most ckptMaxBytes of
// them. A benign plan ends at the first checkpoint its state rejoins, so
// denser checkpoints shorten the suffix after the fault. The replay to the
// fault site is paid about once per checkpoint interval and worker batch,
// not per plan: the other plans of the interval resume from the fork the
// plan before took at its site (asmWorker). Memory sets the limit: each
// doubling of the golden run's schedule captures about n snapshots that
// the next one drops, and that churn raises the peak heap more than the
// kept snapshots do. The constants come from the sweep in EXPERIMENTS.md.
const (
	ckptPerRootSample = 4
	ckptMaxBytes      = 1 << 20
)

// goldenCheckpoints is the one K rule of every mode: the schedule c's
// golden run takes on the engine whose snapshots are T, nil without
// checkpointing. A test's forced K is taken as is. Otherwise the schedule
// thins at 2n snapshots, so it ends at a power-of-two K with between n and
// 2n of them:
//
//   - dense, for a converging asm campaign: n = ckptPerRootSample·√Samples,
//     with at most ckptMaxBytes of snapshots. Any K yields the same table,
//     because resume and convergence are exact.
//   - sparse, for compose and IR: n = ⌈√Samples⌉ and no byte bound, which
//     balances the snapshots taken against the replay to each plan's site.
//     Compose's K cuts its sections, so it must not depend on snapshot
//     sizes.
//
// An auto schedule starts at startK for a run of sites dynamic sites: K = 1
// when sites is 0, the count is unknown.
func goldenCheckpoints[T any, S pagemem.Capture[T]](c Campaign, irLevel bool, sites uint64) *pagemem.Schedule[T, S] {
	switch {
	case c.NoCheckpoint:
		return nil
	case c.every > 0:
		return &pagemem.Schedule[T, S]{Every: c.every}
	}
	s := &pagemem.Schedule[T, S]{Max: 2 * autoSnapshots(ckptPerRootSample, c.Samples), MaxBytes: ckptMaxBytes}
	if irLevel || c.Compose != ComposeOff {
		s.Max, s.MaxBytes = 2*autoSnapshots(1, c.Samples), 0
	}
	s.Every = startK(sites, s.Max)
	return s
}

// autoSnapshots is an auto schedule's target snapshot count n =
// ⌈perRoot·√Samples⌉.
func autoSnapshots(perRoot float64, samples int) int {
	return int(math.Ceil(perRoot * math.Sqrt(float64(max(samples, 1)))))
}

// startK is the K an auto schedule holding at most max snapshots ends at
// over a run of sites dynamic sites when only the count thins it: the
// least power of two K with ⌊sites/K⌋ ≤ max. Thinning only doubles K, and
// a byte bound only thins more, so no run of sites sites ends below it.
// Started at or below its final K, a pagemem.Schedule keeps exactly the
// snapshots it keeps when started at 1: until the one started at 1 reaches
// the other's K, the other holds a subset of its snapshots and so thins no
// earlier, and from there on the two are the same.
func startK(sites uint64, max int) uint64 {
	k := uint64(1)
	for sites/k > uint64(max) {
		k *= 2
	}
	return k
}

// hintedGolden takes a golden run's checkpoint schedule with a site-count
// hint: run executes the golden run on the schedule it is given, with the
// site count it may expect, and reports the sites the run retired and
// whether it completed. With the hint, c's auto schedule starts at the K
// the hint implies (startK). That is only exact when the start is no
// higher than startK of the run's actual count: a run the hint started
// above it runs again without the hint, and reran reports it. start is the
// K the hinted run started at.
func hintedGolden[T any, S pagemem.Capture[T]](c Campaign, irLevel bool, hint uint64,
	run func(s *pagemem.Schedule[T, S], expect uint64) (sites uint64, ok bool)) (s *pagemem.Schedule[T, S], start uint64, reran bool) {
	s = goldenCheckpoints[T, S](c, irLevel, hint)
	if s != nil {
		start = s.Every
	}
	sites, ok := run(s, hint)
	if ok && s != nil && c.every == 0 && start > startK(sites, s.Max) {
		s = goldenCheckpoints[T, S](c, irLevel, 0)
		run(s, 0)
		return s, start, true
	}
	return s, start, false
}

// CheckpointSummary describes one campaign's checkpointing activity.
// A disabled campaign (Campaign.NoCheckpoint) leaves it zero. A worker
// resumes each plan from its nearest checkpoint or, when that lies later,
// from the fork the batch's previous plan took at its own site; forks live
// for one batch of plans, so the summary is the same at any worker count.
// How many plans resumed from a fork is the ckpt.fork_resumes counter.
type CheckpointSummary struct {
	Enabled       bool
	Interval      uint64 // effective K (dynamic sites between snapshots)
	Snapshots     int
	SnapshotBytes int   // total dirtied bytes captured across snapshots
	Restores      int64 // plans resumed from a snapshot or a fork
	ColdStarts    int64 // plans run from scratch
	// SkippedInsts sums, over the resumed plans, the dynamic instructions
	// before the state each resumed from: the golden prefix it did not
	// replay.
	SkippedInsts int64
}

// plansBySite returns the fault plan ordered by ascending site; plans at
// the same site keep their order, which is generation order as every
// stage hands the plan over. Outcome counts are order-independent, so
// sorting cannot change Result.Counts; it gives each worker's batch good
// snapshot locality, and lets each plan resume from the fork of the one
// before. One 64-bit key per plan, its site above its position, sorts the
// plan without comparing the plans themselves; only a run of more than
// 2^32 sites needs the comparison sort.
func plansBySite(plans []plannedFault) []plannedFault {
	keys := make([]uint64, len(plans))
	for i, p := range plans {
		if p.site > math.MaxUint32 || i > math.MaxUint32 {
			sorted := slices.Clone(plans)
			slices.SortStableFunc(sorted, func(a, b plannedFault) int { return cmp.Compare(a.site, b.site) })
			return sorted
		}
		keys[i] = p.site<<32 | uint64(i)
	}
	slices.Sort(keys)
	sorted := make([]plannedFault, len(plans))
	for j, k := range keys {
		sorted[j] = plans[uint32(k)]
	}
	return sorted
}
