package fi

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"ferrum/internal/obs"
)

// Plan-space sharding splits one campaign's deterministic fault plan across
// cooperating processes (the fiserve coordinator/worker service). Every
// shard regenerates the identical full plan sequence from the seed, then
// keeps only the plans whose generation index is congruent to its shard
// index modulo the shard count — a round-robin partition, so each shard is
// itself a uniform sample of the plan space. Kept plans are re-indexed
// densely (rank order), exactly like the pruning partition's dense
// representative list, so the journal, prior-replay and prefix machinery
// work unchanged per shard; the merge inverts the re-indexing in closed
// form (global = shard + local*count) with no mapping tables.

// ShardSpec selects one shard of a campaign's plan space. The zero value
// (and Count <= 1) means unsharded.
type ShardSpec struct {
	Index int
	Count int
}

func (s ShardSpec) enabled() bool { return s.Count > 1 }

// global maps a shard-local dense plan index back to its generation index
// in the full plan sequence.
func (s ShardSpec) global(local int) int {
	if !s.enabled() {
		return local
	}
	return s.Index + local*s.Count
}

// check validates the spec's index range. Which run modes sharding
// composes with is Campaign.Check's business.
func (s ShardSpec) check() error {
	if s.Count < 0 || s.Index < 0 {
		return fmt.Errorf("fi: shard %d/%d: negative shard spec", s.Index, s.Count)
	}
	if !s.enabled() {
		if s.Index != 0 {
			return fmt.Errorf("fi: shard %d/%d: index without a shard count", s.Index, s.Count)
		}
		return nil
	}
	if s.Index >= s.Count {
		return fmt.Errorf("fi: shard %d/%d: index out of range", s.Index, s.Count)
	}
	return nil
}

// shardPlans keeps the spec's residue class of the full plan sequence and
// re-indexes the kept plans densely by rank. A no-op when unsharded.
func shardPlans(plans []plannedFault, s ShardSpec) []plannedFault {
	if !s.enabled() {
		return plans
	}
	sub := make([]plannedFault, 0, len(plans)/s.Count+1)
	for _, p := range plans {
		if p.idx%s.Count == s.Index {
			p.idx = len(sub)
			sub = append(sub, p)
		}
	}
	return sub
}

// MergeShardResults combines per-shard campaign Results into the Result of
// the whole campaign. The shards must come from the same golden run —
// DynSites, Golden output and Cycles are cross-checked, not trusted — and
// outcome counts and latency histograms simply add, because the shards
// partition the plan space. Checkpoint work counters add too (they account
// for work actually performed), but the per-shard auto-tuned Interval is
// process-local and is reported as 0 unless all shards agree.
func MergeShardResults(shards []Result) (Result, error) {
	if len(shards) == 0 {
		return Result{}, fmt.Errorf("fi: merge shards: no shard results")
	}
	m := shards[0]
	for i, s := range shards[1:] {
		if s.DynSites != m.DynSites {
			return Result{}, fmt.Errorf("fi: merge shards: shard %d saw %d dynamic sites, shard 0 saw %d — different golden runs", i+1, s.DynSites, m.DynSites)
		}
		if !equalOutput(s.Golden, m.Golden) {
			return Result{}, fmt.Errorf("fi: merge shards: shard %d's golden output differs from shard 0's", i+1)
		}
		if s.Cycles != m.Cycles {
			return Result{}, fmt.Errorf("fi: merge shards: shard %d's golden run took %.0f cycles, shard 0's %.0f", i+1, s.Cycles, m.Cycles)
		}
		if s.EarlyStopped || m.EarlyStopped {
			return Result{}, fmt.Errorf("fi: merge shards: shard results must not be early-stopped")
		}
		if s.Pruned.Enabled || m.Pruned.Enabled {
			return Result{}, fmt.Errorf("fi: merge shards: shard results must not be pruned")
		}
		if s.Composed.Enabled || m.Composed.Enabled {
			return Result{}, fmt.Errorf("fi: merge shards: shard results must not be composed")
		}
		m.Samples += s.Samples
		for o := range m.Counts {
			m.Counts[o] += s.Counts[o]
		}
		m.Latency.Merge(s.Latency)
		m.Checkpoint.Enabled = m.Checkpoint.Enabled || s.Checkpoint.Enabled
		if s.Checkpoint.Interval != m.Checkpoint.Interval {
			m.Checkpoint.Interval = 0
		}
		m.Checkpoint.Snapshots += s.Checkpoint.Snapshots
		m.Checkpoint.SnapshotBytes += s.Checkpoint.SnapshotBytes
		m.Checkpoint.Restores += s.Checkpoint.Restores
		m.Checkpoint.ColdStarts += s.Checkpoint.ColdStarts
		m.Checkpoint.SkippedInsts += s.Checkpoint.SkippedInsts
	}
	return m, nil
}

// MergeShardStates combines loaded per-shard journals into one JournalState
// speaking for the whole campaign: shard-local plan indices are mapped back
// to generation indices, and cell Results are merged once every shard of a
// key has completed (a key with any incomplete shard stays partial). The
// states must form a complete shard set — indices 0..n-1, each claiming
// ShardCount n — recorded under one configuration.
func MergeShardStates(states []*JournalState) (*JournalState, error) {
	n := len(states)
	if n == 0 {
		return nil, fmt.Errorf("fi: merge shards: no shard journals")
	}
	byShard := make([]*JournalState, n)
	for _, st := range states {
		m := st.Meta
		if m.ShardCount != n {
			return nil, fmt.Errorf("fi: merge shards: journal for shard %d/%d merged into a set of %d", m.ShardIndex, m.ShardCount, n)
		}
		if m.ShardIndex < 0 || m.ShardIndex >= n || byShard[m.ShardIndex] != nil {
			return nil, fmt.Errorf("fi: merge shards: duplicate or out-of-range shard index %d", m.ShardIndex)
		}
		byShard[m.ShardIndex] = st
	}
	meta := byShard[0].Meta
	meta.ShardIndex, meta.ShardCount = 0, 0
	for i, st := range byShard {
		w := st.Meta
		w.ShardIndex, w.ShardCount = 0, 0
		if err := w.Check(meta); err != nil {
			return nil, fmt.Errorf("fi: merge shards: shard %d: %w", i, err)
		}
	}
	merged := &JournalState{Meta: meta, cells: map[string]*CellState{}}
	keys := map[string]bool{}
	for _, st := range byShard {
		for k := range st.cells {
			keys[k] = true
		}
	}
	for k := range keys {
		mc := merged.cell(k)
		results := make([]Result, 0, n)
		complete := true
		for i, st := range byShard {
			spec := ShardSpec{Index: i, Count: n}
			sc := st.cells[k]
			if sc == nil {
				complete = false
				continue
			}
			for local, o := range sc.Plans {
				g := spec.global(local)
				mc.Plans[g] = o
				if l, ok := sc.PlanLats[local]; ok {
					mc.PlanLats[g] = l
				}
				if site, ok := sc.PlanSites[local]; ok {
					mc.PlanSites[g] = site
				}
				if sc.PlanFB[local] {
					mc.PlanFB[g] = true
				}
			}
			if sc.Result == nil {
				complete = false
			} else {
				results = append(results, *sc.Result)
			}
		}
		if complete {
			res, err := MergeShardResults(results)
			if err != nil {
				return nil, fmt.Errorf("fi: merge shards: campaign %q: %w", k, err)
			}
			mc.Result = &res
		}
	}
	return merged, nil
}

// WriteCanonical writes the state as a canonical journal: the meta record,
// then per campaign key (sorted) its plan records in generation order
// followed by its cell record. Canonical form is what "byte-identical"
// means across process topologies — a single-process journal's record
// order reflects site-sorted execution and worker races, so raw files
// never compare equal; their canonical forms must. Checkpoint activity is
// stripped from cell records because it describes work performed by a
// particular process arrangement (per-shard auto-tuned intervals, snapshot
// counts), not the campaign's outcome — the same reason resume replays
// fi.* counters but never ckpt.*.
func (s *JournalState) WriteCanonical(w io.Writer) error {
	meta := s.Meta
	enc := func(r journalRecord) error {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		_, err = w.Write(append(b, '\n'))
		return err
	}
	if err := enc(journalRecord{T: "meta", V: journalVersion, Meta: &meta}); err != nil {
		return err
	}
	for _, key := range s.Keys() {
		c := s.cells[key]
		idxs := make([]int, 0, len(c.Plans))
		for i := range c.Plans {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			r := journalRecord{T: "plan", C: key, I: i, O: c.Plans[i]}
			if site, ok := c.PlanSites[i]; ok {
				r.S = &site
			}
			if l, ok := c.PlanLats[i]; ok {
				lat := l
				r.L = &lat
			}
			if c.PlanFB[i] {
				fb := true
				r.FB = &fb
			}
			if err := enc(r); err != nil {
				return err
			}
		}
		if c.Result != nil {
			res := *c.Result
			res.Checkpoint = CheckpointSummary{}
			b, err := json.Marshal(res)
			if err != nil {
				return err
			}
			if err := enc(journalRecord{T: "cell", C: key, Res: b}); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReplayResult publishes a campaign Result's outcome counters and latency
// histograms to an observability context as if the campaign had completed
// there. The fiserve coordinator replays each merged campaign exactly once
// into its own registry, so its /metrics surface reconciles against the
// merged journal the same way a single process's does — worker snapshots
// contribute only their non-fi.* (engine, journal, checkpoint) counters.
func ReplayResult(cx *obs.Ctx, res Result) {
	Campaign{Obs: cx}.observeOutcomes(res)
}
