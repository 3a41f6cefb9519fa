package fi

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"ferrum/internal/machine"
)

// DefaultCheckpointInterval is the auto checkpoint spacing K of compose and
// IR campaigns: DynSites/√Samples balances the one-off cost of recording
// DynSites/K snapshots against the per-plan cost of replaying on average
// K/2 sites, which is minimised (to first order) at K ≈ DynSites/√Samples.
// Always at least 1. Compose keeps this rule because its K cuts the
// sections a composed journal resumes under; converging asm campaigns use
// the denser goldenCheckpoints schedule.
func DefaultCheckpointInterval(dynSites uint64, samples int) uint64 {
	if samples <= 0 {
		return dynSites + 1 // no plans: never checkpoint
	}
	k := uint64(float64(dynSites) / math.Sqrt(float64(samples)))
	if k < 1 {
		k = 1
	}
	return k
}

// The auto schedule of a converging asm campaign targets
// ckptPerRootSample·√Samples snapshots, and holds at most ckptMaxBytes of
// them (machine.Checkpoints.MaxBytes). A benign plan ends at the first
// checkpoint its state rejoins, so denser checkpoints shorten both
// the replay to the fault site and the suffix after it. Memory sets the
// limit: each doubling of the golden run's schedule captures about n
// snapshots that the next one drops, and that churn raises the peak heap
// more than the kept snapshots do. The constants come from the sweep in
// EXPERIMENTS.md.
const (
	ckptPerRootSample = 4
	ckptMaxBytes      = 1 << 20
)

// checkpointInterval resolves the effective K of a campaign that records
// its checkpoints in a run of their own: compose and IR.
func (c Campaign) checkpointInterval(dynSites uint64) uint64 {
	if c.CheckpointEvery > 0 {
		return c.CheckpointEvery
	}
	return DefaultCheckpointInterval(dynSites, c.Samples)
}

// goldenCheckpoints is the checkpoint schedule the golden run of a
// converging asm campaign records; nil for campaigns that record theirs
// separately (compose, IR) or not at all. An explicit K is taken as is.
// Otherwise n = ckptPerRootSample·√Samples: the schedule starts at K = 1
// and doubles K whenever it would keep more than 2n snapshots (or more
// than ckptMaxBytes), so it ends with between n and 2n at a power-of-two
// K. For these campaigns any K yields the same table, because resume and
// convergence are exact.
func (c Campaign) goldenCheckpoints(irLevel bool) *machine.Checkpoints {
	if irLevel || c.NoCheckpoint || c.Compose != ComposeOff || c.Samples <= 0 {
		return nil
	}
	if c.CheckpointEvery > 0 {
		return &machine.Checkpoints{Every: c.CheckpointEvery}
	}
	return &machine.Checkpoints{Every: 1, Max: 2 * autoSnapshots(c.Samples), MaxBytes: ckptMaxBytes}
}

// autoSnapshots is the auto schedule's target snapshot count n.
func autoSnapshots(samples int) int {
	return int(math.Ceil(ckptPerRootSample * math.Sqrt(float64(samples))))
}

// CheckpointSummary describes one campaign's checkpointing activity.
// A disabled campaign (Campaign.NoCheckpoint) leaves it zero.
type CheckpointSummary struct {
	Enabled       bool
	Interval      uint64 // effective K (dynamic sites between snapshots)
	Snapshots     int
	SnapshotBytes int   // total dirtied bytes captured across snapshots
	Restores      int64 // plans resumed from a snapshot
	ColdStarts    int64 // plans run from scratch
	SkippedInsts  int64 // dynamic instructions fast-forwarded over
}

// sortPlansBySite orders the fault plan by ascending site, and plans at the
// same site by generation index. Outcome counts are order-independent, so
// sorting cannot change Result.Counts; it gives each worker's batch good
// snapshot locality.
func sortPlansBySite(plans []plannedFault) {
	slices.SortFunc(plans, func(a, b plannedFault) int {
		return cmp.Or(cmp.Compare(a.site, b.site), cmp.Compare(a.idx, b.idx))
	})
}

// nearestSnapshot returns the latest snapshot taken at or before site, or
// -1 if the site precedes the first snapshot. snaps must be ordered by
// ascending Sites(), which the recording run guarantees.
func nearestSnapshot(sites []uint64, site uint64) int {
	return sort.Search(len(sites), func(i int) bool { return sites[i] > site }) - 1
}
