package fi

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestJournalMetaCheckNamesField pins the Check contract: a mismatch names
// the first differing field and both values, instead of dumping two JSON
// blobs to eyeball.
func TestJournalMetaCheckNamesField(t *testing.T) {
	base := JournalMeta{Tool: "test", Seed: 7, Samples: 80, Benchmarks: []string{"bfs", "lud"}}
	if err := base.Check(base); err != nil {
		t.Fatalf("identical metas: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*JournalMeta)
		want   string
	}{
		{"seed", func(m *JournalMeta) { m.Seed = 9 }, "journal seed=7, invocation seed=9"},
		{"samples", func(m *JournalMeta) { m.Samples = 100 }, "journal samples=80, invocation samples=100"},
		{"benchmarks", func(m *JournalMeta) { m.Benchmarks = []string{"bfs"} }, "journal benchmarks=bfs,lud, invocation benchmarks=bfs"},
		{"prune", func(m *JournalMeta) { m.Prune = "full" }, "journal prune=, invocation prune=full"},
		{"shard", func(m *JournalMeta) { m.ShardIndex = 1 }, "journal shard=0, invocation shard=1"},
		{"shard_count", func(m *JournalMeta) { m.ShardCount = 4 }, "journal shard_count=0, invocation shard_count=4"},
	}
	for _, tc := range cases {
		other := base
		tc.mutate(&other)
		err := base.Check(other)
		if err == nil {
			t.Errorf("%s: differing metas passed Check", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the field as %q", tc.name, err, tc.want)
		}
	}
	// Seed differs before samples in declaration order; only the first
	// differing field is reported.
	other := base
	other.Seed, other.Samples = 9, 100
	if err := base.Check(other); err == nil || !strings.Contains(err.Error(), "seed=") ||
		strings.Contains(err.Error(), "samples=") {
		t.Errorf("multi-field mismatch reported %q, want first field (seed) only", err)
	}
}

// failSink is a JournalSink that fails at call N, from the journal's side
// a full disk or a lost device: a Write error after allow writes went
// through, a short write at Write call shortAt, or an error from Sync call
// syncAt (calls count from 1; 0 leaves that fault off).
type failSink struct {
	allow           int // writes to accept before failing; 0 accepts all
	shortAt, syncAt int
	wrote, synced   int
}

var (
	errSinkFull = errors.New("sink full")
	errSyncLost = errors.New("sync lost")
)

func (s *failSink) Write(p []byte) (int, error) {
	if s.allow > 0 && s.wrote >= s.allow {
		return 0, errSinkFull
	}
	s.wrote++
	if s.wrote == s.shortAt {
		return len(p) / 2, nil
	}
	return len(p), nil
}

func (s *failSink) Sync() error {
	if s.synced++; s.synced == s.syncAt {
		return errSyncLost
	}
	return nil
}

func (s *failSink) Close() error { return nil }

// TestJournalWriteErrorFailsCampaign pins that a journaled campaign whose
// journal latched a write failure fails with a wrapped error and never
// returns success over a silently truncated journal: a write error, a
// short write and an fsync error, each past the meta record.
func TestJournalWriteErrorFailsCampaign(t *testing.T) {
	tgt := asmTarget(t, false)
	for _, tc := range []struct {
		name string
		sink *failSink
		want error
	}{
		{"write error", &failSink{allow: 1}, errSinkFull},
		{"short write", &failSink{shortAt: 2}, io.ErrShortWrite},
		{"sync error", &failSink{syncAt: 2}, errSyncLost},
	} {
		j, err := NewStreamJournal(tc.sink, testMeta)
		if err != nil {
			t.Fatal(err)
		}
		c := Campaign{Samples: 40, Seed: 3, Workers: 1, Journal: j, Key: "cell"}
		_, err = RunAsmCampaign(tgt, c)
		if err == nil {
			t.Fatalf("%s: campaign with a failing journal returned success", tc.name)
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: campaign error %v does not wrap %v", tc.name, err, tc.want)
		}
		if !strings.Contains(err.Error(), "journal write failed") {
			t.Errorf("%s: campaign error %q does not identify the journal", tc.name, err)
		}
	}
}

// planByPlan is a runPlans worker factory whose workers run each plan
// through run.
func planByPlan(run func(plannedFault) PlanRecord) func() batchRunner {
	return func() batchRunner {
		return func(batch []plannedFault, done func(plannedFault, PlanRecord)) {
			for _, p := range batch {
				done(p, run(p))
			}
		}
	}
}

// TestNoJournalPastCancel: a worker still runs the plans in hand when
// Cancel fires (cancellation is batch-granular), but those plans count
// toward no result, so they must not reach the journal: journaling them
// would leave more plan records than the fi.* totals account for.
func TestNoJournalPastCancel(t *testing.T) {
	var plans []plannedFault
	for i := 0; i < 32; i++ {
		plans = append(plans, plannedFault{idx: i, site: uint64(i)})
	}
	path := journalPath(t)
	j, err := CreateJournal(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	c := Campaign{Samples: len(plans), Workers: 1, Cancel: cancel, Journal: j, Key: "cell"}
	_, err = runPlans(c, plans, planByPlan(func(p plannedFault) PlanRecord {
		if p.idx == 20 { // mid-batch: positions 21..31 are still in hand
			close(cancel)
		}
		return PlanRecord{Outcome: Benign}
	}), nil)
	if !errors.Is(err, ErrCampaignCanceled) {
		t.Fatalf("err = %v, want ErrCampaignCanceled", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Plans 0..19 were recorded before Cancel fired; plan 20's own record —
	// and everything after — sees the closed channel and is discarded.
	if cs := st.Cell("cell"); len(cs.Plans) != 20 {
		t.Errorf("canceled campaign journaled %d plans, want 20", len(cs.Plans))
	}
}

// TestShardPlansPartition: the round-robin shard partition is exact — every
// generation index lands in exactly one shard, shard-local indices are
// dense ranks, and ShardSpec.global inverts the re-indexing in closed form.
func TestShardPlansPartition(t *testing.T) {
	const samples = 103 // deliberately not a multiple of the shard count
	plans := mustPlans(t, Campaign{Samples: samples, Seed: 42}, 17, nil)
	for _, count := range []int{2, 3, 4} {
		seen := map[int]plannedFault{}
		for s := 0; s < count; s++ {
			spec := ShardSpec{Index: s, Count: count}
			for local, p := range shardPlans(plans, spec) {
				if p.idx != local {
					t.Fatalf("count=%d shard=%d: plan at rank %d carries local index %d", count, s, local, p.idx)
				}
				g := spec.global(local)
				if _, dup := seen[g]; dup {
					t.Fatalf("count=%d: generation index %d assigned to two shards", count, g)
				}
				seen[g] = p
			}
		}
		if len(seen) != samples {
			t.Fatalf("count=%d: shards cover %d of %d plans", count, len(seen), samples)
		}
		for g, p := range seen {
			want := plans[g]
			if p.site != want.site || p.bit != want.bit {
				t.Fatalf("count=%d: generation index %d mapped to plan %+v, want %+v", count, g, p, want)
			}
		}
	}
}

// TestShardSpecCheck: invalid or incompatible shard specs are rejected
// before any work happens.
func TestShardSpecCheck(t *testing.T) {
	tgt := asmTarget(t, false)
	for _, tc := range []struct {
		c    Campaign
		want string
	}{
		{Campaign{Samples: 10, Shard: ShardSpec{Index: 3, Count: 2}}, "out of range"},
		{Campaign{Samples: 10, Shard: ShardSpec{Index: 1}}, "index without a shard count"},
		{Campaign{Samples: 10, Shard: ShardSpec{Count: 2}, Prune: PruneFull}, "prune mode full is incompatible with shard 0/2"},
		{Campaign{Samples: 10, Shard: ShardSpec{Count: 2}, Compose: ComposeOn}, "compose mode on is incompatible with shard 0/2"},
	} {
		_, err := RunAsmCampaign(tgt, tc.c)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("shard %+v: err = %v, want %q", tc.c.Shard, err, tc.want)
		}
	}
}

// testShardMergeEquivalence runs one campaign single-process and as a set
// of sharded campaigns, then requires the merged shard journals and Results
// to reproduce the single-process run byte for byte in canonical form.
func testShardMergeEquivalence(t *testing.T, count int, protect bool) {
	t.Helper()
	inst := equivBench(t, "bfs")
	tgt := equivAsmTarget(t, inst, protect)
	base := Campaign{Samples: 80, Seed: 12345, MaxSteps: equivSteps, Workers: 2}
	meta := JournalMeta{Tool: "test", Seed: base.Seed, Samples: base.Samples}

	singlePath := journalPath(t)
	j, err := CreateJournal(singlePath, meta)
	if err != nil {
		t.Fatal(err)
	}
	c := base
	c.Journal, c.Key = j, "cell"
	want, err := RunAsmCampaign(tgt, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	singleState, err := LoadJournal(singlePath)
	if err != nil {
		t.Fatal(err)
	}

	var states []*JournalState
	var results []Result
	for s := 0; s < count; s++ {
		smeta := meta
		smeta.ShardIndex, smeta.ShardCount = s, count
		path := fmt.Sprintf("%s.shard%d", singlePath, s)
		sj, err := CreateJournal(path, smeta)
		if err != nil {
			t.Fatal(err)
		}
		sc := base
		sc.Shard = ShardSpec{Index: s, Count: count}
		sc.Journal, sc.Key = sj, "cell"
		res, err := RunAsmCampaign(tgt, sc)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", s, count, err)
		}
		if err := sj.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := LoadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, st)
		results = append(results, res)
	}

	merged, err := MergeShardResults(results)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Samples != want.Samples || merged.Counts != want.Counts {
		t.Errorf("merged result counts %v (n=%d) != single-process %v (n=%d)",
			merged.Counts, merged.Samples, want.Counts, want.Samples)
	}
	if merged.DynSites != want.DynSites || merged.Cycles != want.Cycles {
		t.Errorf("merged golden-run fields differ from single-process run")
	}
	if merged.Latency.N() != want.Latency.N() {
		t.Errorf("merged latency has %d samples, single-process %d", merged.Latency.N(), want.Latency.N())
	}

	mergedState, err := MergeShardStates(states)
	if err != nil {
		t.Fatal(err)
	}
	var single, sharded bytes.Buffer
	if err := singleState.WriteCanonical(&single); err != nil {
		t.Fatal(err)
	}
	if err := mergedState.WriteCanonical(&sharded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(single.Bytes(), sharded.Bytes()) {
		t.Errorf("canonical merged journal differs from single-process canonical journal:\nsingle:\n%s\nmerged:\n%s",
			&single, &sharded)
	}
}

func TestShardMergeEquivalenceRaw(t *testing.T) {
	for _, count := range []int{2, 4} {
		testShardMergeEquivalence(t, count, false)
	}
}

func TestShardMergeEquivalenceProtected(t *testing.T) {
	testShardMergeEquivalence(t, 2, true)
}

// TestShardMergeEquivalenceIR: the sharding and merge machinery is
// level-agnostic — IR campaigns shard identically.
func TestShardMergeEquivalenceIR(t *testing.T) {
	inst := equivBench(t, "bfs")
	tgt := equivIRTarget(t, inst, false)
	base := Campaign{Samples: 60, Seed: 12345, MaxSteps: equivSteps, Workers: 2}
	want, err := RunIRCampaign(tgt, base)
	if err != nil {
		t.Fatal(err)
	}
	var results []Result
	for s := 0; s < 3; s++ {
		sc := base
		sc.Shard = ShardSpec{Index: s, Count: 3}
		res, err := RunIRCampaign(tgt, sc)
		if err != nil {
			t.Fatalf("shard %d/3: %v", s, err)
		}
		results = append(results, res)
	}
	merged, err := MergeShardResults(results)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Samples != want.Samples || merged.Counts != want.Counts {
		t.Errorf("merged IR result counts %v (n=%d) != single-process %v (n=%d)",
			merged.Counts, merged.Samples, want.Counts, want.Samples)
	}
	if merged.Latency.N() != want.Latency.N() || merged.Latency.Unit != want.Latency.Unit {
		t.Errorf("merged IR latency (%s, n=%d) != single-process (%s, n=%d)",
			merged.Latency.Unit, merged.Latency.N(), want.Latency.Unit, want.Latency.N())
	}
}

// TestMergeShardStatesRejects: incomplete shard sets, duplicate indices and
// cross-configuration shards refuse to merge.
func TestMergeShardStatesRejects(t *testing.T) {
	mk := func(index, count int, seed int64) *JournalState {
		return &JournalState{
			Meta:  JournalMeta{Tool: "test", Seed: seed, Samples: 80, ShardIndex: index, ShardCount: count},
			cells: map[string]*CellState{},
		}
	}
	if _, err := MergeShardStates(nil); err == nil {
		t.Error("empty shard set merged")
	}
	if _, err := MergeShardStates([]*JournalState{mk(0, 3, 1), mk(1, 3, 1)}); err == nil {
		t.Error("incomplete shard set (2 of 3) merged")
	}
	if _, err := MergeShardStates([]*JournalState{mk(0, 2, 1), mk(0, 2, 1)}); err == nil {
		t.Error("duplicate shard index merged")
	}
	if _, err := MergeShardStates([]*JournalState{mk(0, 2, 1), mk(1, 2, 2)}); err == nil {
		t.Error("shards from different seeds merged")
	} else if !strings.Contains(err.Error(), "seed=") {
		t.Errorf("cross-seed merge error %q does not name the field", err)
	}
}
