package fi

import (
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"ferrum/internal/asm"
	"ferrum/internal/machine"
	"ferrum/internal/obs"
)

// These tests pin the pruned-campaign contract: a campaign that answers
// dead and masked plans statically is bit-identical to the full campaign
// (those outcomes are Benign by construction), and a PruneFull campaign —
// which also folds each (static instruction, bit) class onto one executed
// representative — stays Wilson-interval-compatible with it. The exact
// bookkeeping identity Planned == Executed + Dead + Masked + Deduped holds
// throughout, for any worker count, under -race.

func mustPlans(t *testing.T, c Campaign, sites uint64, width func(uint64) uint) []plannedFault {
	t.Helper()
	plans, err := makePlans(c, sites, width)
	if err != nil {
		t.Fatal(err)
	}
	return plans
}

func TestMakePlansNoSites(t *testing.T) {
	if _, err := makePlans(Campaign{Samples: 10, Seed: 1}, 0, nil); !errors.Is(err, ErrNoSites) {
		t.Fatalf("makePlans with 0 sites = %v, want ErrNoSites", err)
	}
}

func TestSiteWidthFallbackCounted(t *testing.T) {
	var n int
	instrs := []machine.StaticInstr{{Dest: asm.Dest{Kind: asm.DestGPR, W: asm.W8}}, {}}
	width := siteWidth([]int32{0, 1}, instrs, &n)
	if w := width(0); w != 8 || n != 0 {
		t.Fatalf("recorded width: got %d (fallbacks %d)", w, n)
	}
	if w := width(1); w != 64 || n != 1 {
		t.Fatalf("zero width: got %d (fallbacks %d), want 64 (1)", w, n)
	}
	if w := width(5); w != 64 || n != 2 {
		t.Fatalf("out-of-range site: got %d (fallbacks %d), want 64 (2)", w, n)
	}
	// A nil counter must still fall back without crashing.
	if w := siteWidth([]int32{1}, instrs, nil)(0); w != 64 {
		t.Fatalf("nil-counter fallback width = %d", w)
	}
}

func TestParsePruneMode(t *testing.T) {
	for _, m := range []PruneMode{PruneOff, PruneExact, PruneFull} {
		got, err := ParsePruneMode(m.String())
		if err != nil || got != m {
			t.Errorf("round trip %v: got %v, %v", m, got, err)
		}
	}
	if m, err := ParsePruneMode(""); err != nil || m != PruneOff {
		t.Errorf("empty string: got %v, %v", m, err)
	}
	if _, err := ParsePruneMode("bogus"); err == nil {
		t.Error("unknown mode accepted")
	}
}

func checkPruneIdentity(t *testing.T, ctx string, pr PruneSummary, samples int) {
	t.Helper()
	if !pr.Enabled {
		t.Fatalf("%s: result carries no prune summary", ctx)
	}
	if pr.Planned != samples {
		t.Errorf("%s: planned %d != samples %d", ctx, pr.Planned, samples)
	}
	if pr.Executed+pr.Dead+pr.Masked+pr.Deduped != pr.Planned {
		t.Errorf("%s: bookkeeping identity broken: %+v", ctx, pr)
	}
}

// TestPrunedPlansAreBenign is the direct soundness check behind the
// bit-identical claim: every plan the partition answers statically, when
// actually executed, is Benign. (The equivalence tests alone could mask a
// misclassification through count cancellation; this cannot.)
func TestPrunedPlansAreBenign(t *testing.T) {
	for _, protect := range []bool{false, true} {
		tgt := asmTarget(t, protect)
		c := Campaign{Samples: 250, Seed: 99, MaxSteps: equivSteps, Prune: PruneExact}
		f := &campaign{c: c, build: func() (engine, error) { return newAsmEngine(tgt, c.MaxSteps) }}
		if _, err := f.run(); err != nil {
			t.Fatal(err)
		}
		e := f.eng.(*asmEngine)
		// The campaign released its machines; replay on a fresh one.
		m, err := machine.New(tgt.Prog, tgt.MemSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := tgt.Setup(m); err != nil {
			t.Fatal(err)
		}
		pruned := 0
		for i, p := range f.orig {
			if f.part.assign[i] >= 0 {
				continue
			}
			pruned++
			fault := machine.Fault{Site: p.site, Bit: p.bit, Extra: p.extra}
			r := m.Run(machine.RunOpts{Args: tgt.Args, MaxSteps: c.MaxSteps, Fault: &fault})
			if o := e.record(r).Outcome; o != Benign {
				t.Errorf("protect=%v plan %d (site %d bit %d) pruned but executes to %v",
					protect, i, p.site, p.bit, o)
			}
		}
		m.Release()
		if pruned == 0 {
			t.Errorf("protect=%v: no plans pruned; the check is vacuous", protect)
		}
	}
}

// TestPruneEquivalence: pruned-vs-full across {bfs, lud} × {raw, ferrum} ×
// {1, 8} workers. Exact mode must be bit-identical to the unpruned
// campaign; full mode must agree within overlapping Wilson
// intervals and be deterministic across worker counts.
func TestPruneEquivalence(t *testing.T) {
	for _, bench := range []string{"bfs", "lud"} {
		inst := equivBench(t, bench)
		for _, protect := range []bool{false, true} {
			tech := map[bool]string{false: "raw", true: "ferrum"}[protect]
			tgt := equivAsmTarget(t, inst, protect)
			base := Campaign{Samples: 120, Seed: 2026, MaxSteps: equivSteps, Workers: 2}

			direct := base
			direct.NoCheckpoint = true
			want, err := RunAsmCampaign(tgt, direct)
			if err != nil {
				t.Fatalf("%s/%s: full: %v", bench, tech, err)
			}
			if want.Pruned.Enabled {
				t.Fatalf("%s/%s: unpruned campaign reported a prune summary", bench, tech)
			}

			var fullCounts *[numOutcomes]int
			for _, mode := range []PruneMode{PruneExact, PruneFull} {
				for _, workers := range []int{1, 8} {
					c := base
					c.Prune = mode
					c.Workers = workers
					got, err := RunAsmCampaign(tgt, c)
					if err != nil {
						t.Fatalf("%s/%s %v w=%d: %v", bench, tech, mode, workers, err)
					}
					ctx := bench + "/" + tech + "/" + mode.String()
					checkPruneIdentity(t, ctx, got.Pruned, base.Samples)
					if got.Samples != base.Samples {
						t.Errorf("%s: samples %d != %d", ctx, got.Samples, base.Samples)
					}
					if got.DynSites != want.DynSites || !slices.Equal(got.Golden, want.Golden) {
						t.Errorf("%s: golden-run fields differ", ctx)
					}
					switch mode {
					case PruneExact:
						if got.Counts != want.Counts {
							t.Errorf("%s w=%d: counts %v != full %v", ctx, workers, got.Counts, want.Counts)
						}
						if got.Pruned.Deduped != 0 {
							t.Errorf("%s: exact mode deduplicated %d plans", ctx, got.Pruned.Deduped)
						}
					case PruneFull:
						// Deterministic across worker counts...
						if fullCounts == nil {
							cp := got.Counts
							fullCounts = &cp
						} else if got.Counts != *fullCounts {
							t.Errorf("%s w=%d: counts %v != w=1 %v", ctx, workers, got.Counts, *fullCounts)
						}
						// ... and statistically compatible with the full run.
						lo, hi := want.CI95()
						plo, phi := got.CI95()
						if phi < lo || plo > hi {
							t.Errorf("%s: SDC CI [%.3f,%.3f] disjoint from full [%.3f,%.3f]",
								ctx, plo, phi, lo, hi)
						}
					}
				}
			}
		}
	}
}

// TestPruneReduction pins the acceptance bar: on at least one Rodinia cell
// a PruneFull campaign executes ≥ 3x fewer plans than it answers. knn at
// 16000 samples saturates its (static, bit) class space — executed plans
// are bounded by the distinct classes the site distribution can reach, so
// the reduction keeps growing with the sample budget (7x at 32000).
func TestPruneReduction(t *testing.T) {
	inst := equivBench(t, "knn")
	tgt := equivAsmTarget(t, inst, false)
	c := Campaign{Samples: 16000, Seed: 7, MaxSteps: equivSteps, Workers: 8, Prune: PruneFull}
	res, err := RunAsmCampaign(tgt, c)
	if err != nil {
		t.Fatal(err)
	}
	pr := res.Pruned
	checkPruneIdentity(t, "knn/raw", pr, c.Samples)
	if pr.Executed == 0 || pr.Classes == 0 {
		t.Fatalf("degenerate partition: %+v", pr)
	}
	if pr.Planned < 3*pr.Executed {
		t.Errorf("reduction %d/%d < 3x: %+v", pr.Planned, pr.Executed, pr)
	}
	t.Logf("knn/raw: %d planned, %d executed (%.1fx), %d dead, %d masked, %d deduped, %d classes",
		pr.Planned, pr.Executed, float64(pr.Planned)/float64(pr.Executed),
		pr.Dead, pr.Masked, pr.Deduped, pr.Classes)
}

// TestPruneObsCounters: a pruned campaign publishes the fi.pruned_* family
// and the totals reconcile with the result's summary.
func TestPruneObsCounters(t *testing.T) {
	ob := obs.New()
	tgt := asmTarget(t, true)
	c := Campaign{Samples: 200, Seed: 11, MaxSteps: equivSteps, Prune: PruneFull,
		Obs: ob.Cell("cell", 0)}
	res, err := RunAsmCampaign(tgt, c)
	if err != nil {
		t.Fatal(err)
	}
	snap := ob.Reg.Snapshot()
	pr := res.Pruned
	if n := snap.Counters[obs.MPrunedCampaigns]; n != 1 {
		t.Errorf("fi.pruned_campaigns = %d", n)
	}
	if n := snap.Counters[obs.MPrunedPlans]; n != int64(pr.Dead+pr.Masked+pr.Deduped) {
		t.Errorf("fi.pruned_plans = %d, want %d", n, pr.Dead+pr.Masked+pr.Deduped)
	}
	if n := snap.Counters[obs.MPrunedDead]; n != int64(pr.Dead) {
		t.Errorf("fi.pruned_dead = %d, want %d", n, pr.Dead)
	}
	// fi.plans reports the statistical weight, not the executed count.
	if n := snap.Counters[obs.MPlans]; n != int64(c.Samples) {
		t.Errorf("fi.plans = %d, want %d", n, c.Samples)
	}
}

func TestPruneRejectsIR(t *testing.T) {
	tgt := equivIRTarget(t, equivBench(t, "bfs"), false)
	c := Campaign{Samples: 50, Seed: 1, Prune: PruneExact}
	if _, err := RunIRCampaign(tgt, c); err == nil ||
		!strings.Contains(err.Error(), "not supported for IR") {
		t.Fatalf("IR campaign accepted prune mode: %v", err)
	}
}

// TestPruneProneness: per-site attribution composes with pruning — every
// class member shares its representative's static site, so the pruned
// profile is identical to the full one in exact modes.
func TestPruneProneness(t *testing.T) {
	tgt := asmTarget(t, false)
	base := Campaign{Samples: 200, Seed: 21, MaxSteps: equivSteps, Workers: 4}
	want, err := ProfileProneness(tgt, base)
	if err != nil {
		t.Fatal(err)
	}
	c := base
	c.Prune = PruneExact
	got, err := ProfileProneness(tgt, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("pruned profile has %d sites, full %d", len(got), len(want))
	}
	for i := range want {
		// Latency aggregates over executed plans only, so a pruned profile
		// legitimately observes fewer (class representatives stand in for
		// their members, and statically-answered plans never ran); the
		// outcome attribution is what must compose exactly.
		g, w := got[i], want[i]
		g.LatencySum, g.LatencyN = 0, 0
		w.LatencySum, w.LatencyN = 0, 0
		if g != w {
			t.Errorf("site %d: pruned %+v != full %+v", i, got[i], want[i])
		}
		if got[i].LatencyN > want[i].LatencyN {
			t.Errorf("site %d: pruned profile observed more latencies (%d) than the full one (%d)",
				i, got[i].LatencyN, want[i].LatencyN)
		}
	}
}

// TestPruneKillResume: a pruned journaled campaign crashed mid-run resumes
// to the identical result, and the journal meta's Prune field fences
// resumes under a different partition.
func TestPruneKillResume(t *testing.T) {
	inst := equivBench(t, "bfs")
	tgt := equivAsmTarget(t, inst, true)
	const keep = 10
	base := Campaign{Samples: 300, Seed: 12345, MaxSteps: equivSteps, Workers: 8, Prune: PruneFull}
	want, err := RunAsmCampaign(tgt, base)
	if err != nil {
		t.Fatal(err)
	}
	if want.Pruned.Executed <= keep {
		t.Fatalf("only %d executed plans; crash test needs > %d", want.Pruned.Executed, keep)
	}

	path := journalPath(t)
	meta := JournalMeta{Tool: "test", Seed: base.Seed, Samples: base.Samples, Prune: base.Prune.String()}
	j, err := CreateJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	c := base
	c.Journal, c.Key = j, "cell"
	full, err := RunAsmCampaign(tgt, c)
	if err != nil {
		t.Fatal(err)
	}
	if full.Counts != want.Counts || full.Pruned != want.Pruned {
		t.Fatalf("journaled run %+v != baseline %+v", full, want)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	crashJournal(t, path, "cell", keep)
	ob := obs.New()
	st, j2, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Meta.Check(meta); err != nil {
		t.Fatal(err)
	}
	// A resume under a different prune mode (different plan partition) must
	// be refused: the journaled indices are dense representative indices.
	unpruned := meta
	unpruned.Prune = ""
	if err := st.Meta.Check(unpruned); err == nil {
		t.Fatal("journal meta accepted a resume with pruning off")
	}
	cs := st.Cell("cell")
	if cs == nil || cs.Result != nil || len(cs.Plans) != keep {
		t.Fatalf("crash journal cell state = %+v, want partial with %d plans", cs, keep)
	}
	j2.Observe(ob)
	c2 := base
	c2.Journal, c2.Key, c2.Prior = j2, "cell", cs
	c2.Obs = ob.Cell("cell", 0)
	got, err := RunAsmCampaign(tgt, c2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counts != want.Counts || got.Samples != want.Samples || got.Pruned != want.Pruned {
		t.Errorf("partial resume %+v != baseline %+v", got, want)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	snap := ob.Reg.Snapshot()
	if n := snap.Counters[obs.MJournalSkippedPlans]; n != keep {
		t.Errorf("journal.skipped_plans = %d, want %d", n, keep)
	}
	if n := snap.Counters[obs.MPlans]; n != int64(base.Samples) {
		t.Errorf("resumed fi.plans = %d, want %d", n, base.Samples)
	}

	// Full-cell resume: answered without any execution, Progress still
	// reports the complete (unpruned) sample count.
	st2, j3, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cs2 := st2.Cell("cell")
	if cs2 == nil || cs2.Result == nil {
		t.Fatalf("cell record missing after completed resume: %+v", cs2)
	}
	if len(cs2.Plans) != want.Pruned.Executed {
		t.Errorf("journal holds %d plan records, want executed %d", len(cs2.Plans), want.Pruned.Executed)
	}
	var progressed atomic.Int64
	c3 := base
	c3.Journal, c3.Key, c3.Prior = j3, "cell", cs2
	c3.Progress = func(done int) { progressed.Store(int64(done)) }
	again, err := RunAsmCampaign(tgt, c3)
	if err != nil {
		t.Fatal(err)
	}
	if again.Counts != want.Counts || again.Pruned != want.Pruned {
		t.Errorf("full-cell resume %+v != baseline %+v", again, want)
	}
	if err := j3.Close(); err != nil {
		t.Fatal(err)
	}
	if progressed.Load() != int64(base.Samples) {
		t.Errorf("full-cell resume reported progress %d, want %d", progressed.Load(), base.Samples)
	}
}
