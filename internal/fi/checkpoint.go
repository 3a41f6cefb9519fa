package fi

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// DefaultCheckpointInterval auto-tunes the checkpoint spacing K for a
// campaign: DynSites/√Samples balances the one-off cost of recording
// DynSites/K snapshots against the per-plan cost of replaying on average
// K/2 sites, which is minimised (to first order) at K ≈ DynSites/√Samples.
// Always at least 1.
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

// checkpointInterval resolves the campaign's effective K.
func (c Campaign) checkpointInterval(dynSites uint64) uint64 {
	if c.CheckpointEvery > 0 {
		return c.CheckpointEvery
	}
	return DefaultCheckpointInterval(dynSites, c.Samples)
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
