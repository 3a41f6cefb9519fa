package fi

import (
	"math"
	"sort"

	"ferrum/internal/ir"
	"ferrum/internal/machine"
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

// sortPlansBySite orders the fault plan by ascending site (stable, so
// plans at the same site keep their generation order). Outcome counts are
// order-independent, so sorting cannot change Result.Counts; it gives each
// worker's batch good snapshot locality.
func sortPlansBySite(plans []plannedFault) {
	sort.SliceStable(plans, func(i, j int) bool { return plans[i].site < plans[j].site })
}

// nearestSnapshot returns the latest snapshot taken at or before site, or
// -1 if the site precedes the first snapshot. snaps must be ordered by
// ascending Sites(), which the recording run guarantees.
func nearestSnapshot(sites []uint64, site uint64) int {
	return sort.Search(len(sites), func(i int) bool { return sites[i] > site }) - 1
}

// asmCheckpoints is the snapshot schedule recorded from one golden replay
// at spacing k. golden pairs it with the replay's Result, so injected runs
// can end at the first checkpoint their state rejoins
// (machine.RunOpts.Golden); the Result's FnSpans say which functions ran
// between the snapshots, which is what compositional section keys hash.
type asmCheckpoints struct {
	k      uint64
	snaps  []*machine.Snapshot
	sites  []uint64 // snaps[i].Sites(), for binary search
	golden *machine.Golden
}

// recordAsmCheckpoints replays the golden run on m with a snapshot every k
// sites, recording function spans too: on the block loop they cost one
// compare per block entry.
func recordAsmCheckpoints(m *machine.Machine, tgt AsmTarget, c Campaign, k uint64) *asmCheckpoints {
	csp := c.Obs.Span("checkpoint.record")
	cps := &asmCheckpoints{k: k}
	end := m.Run(machine.RunOpts{
		Args:            tgt.Args,
		MaxSteps:        c.MaxSteps,
		CheckpointEvery: k,
		RecordFnSpans:   true,
		OnCheckpoint: func(s *machine.Snapshot) {
			cps.snaps = append(cps.snaps, s)
			cps.sites = append(cps.sites, s.Sites())
		},
	})
	cps.golden = &machine.Golden{Checkpoints: cps.snaps, End: end}
	csp.SetAttr("k", k)
	csp.SetAttr("snapshots", len(cps.snaps))
	csp.SetAttr("bytes", cps.bytes())
	csp.End()
	return cps
}

func (cps *asmCheckpoints) bytes() int {
	n := 0
	for _, s := range cps.snaps {
		n += s.MemBytes()
	}
	return n
}

// irCheckpoints is the IR-level snapshot schedule from one golden replay.
type irCheckpoints struct {
	snaps []*ir.Snapshot
	sites []uint64
}

func recordIRCheckpoints(ip *ir.Interp, tgt IRTarget, c Campaign, k uint64) *irCheckpoints {
	cps := &irCheckpoints{}
	ip.Run(ir.RunOpts{
		Args:            tgt.Args,
		MaxSteps:        c.MaxSteps,
		CheckpointEvery: k,
		OnCheckpoint: func(s *ir.Snapshot) {
			cps.snaps = append(cps.snaps, s)
			cps.sites = append(cps.sites, s.Sites())
		},
	})
	return cps
}

func (cps *irCheckpoints) bytes() int {
	n := 0
	for _, s := range cps.snaps {
		n += s.MemBytes()
	}
	return n
}
