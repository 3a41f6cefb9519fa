package fi

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ferrum/internal/rodinia"
)

// Fork resume (asmWorker): a worker resumes each plan from the unfaulted
// state the previous plan forked at its site, when that lies after the
// plan's nearest checkpoint. The fork is the golden state at that site
// count, so fork resume must be as invisible in results as checkpoint
// resume: per-plan records identical to the NoCheckpoint campaign's.

// checkForkRecs compares a forked campaign with the direct one: Counts,
// latency summaries and every per-plan record.
func checkForkRecs(t *testing.T, ctx string, got, want *campaign, gotRes, wantRes Result) {
	t.Helper()
	if gotRes.Counts != wantRes.Counts {
		t.Errorf("%s: counts %v != direct %v", ctx, gotRes.Counts, wantRes.Counts)
	}
	checkLatencyEquiv(t, ctx, gotRes.Latency, wantRes.Latency)
	if !slices.Equal(got.recs, want.recs) {
		for i := range want.recs {
			if got.recs[i] != want.recs[i] {
				t.Fatalf("%s: plan %d record %+v != direct %+v", ctx, i, got.recs[i], want.recs[i])
			}
		}
	}
	cp := gotRes.Checkpoint
	if n := int64(len(got.plans)); cp.Restores+cp.ColdStarts != n {
		t.Errorf("%s: restores %d + cold starts %d != %d executed plans", ctx, cp.Restores, cp.ColdStarts, n)
	}
}

// TestForkResumeEquiv runs every Rodinia benchmark under raw, FERRUM and
// hybrid EDDI with forks at 1 and 3 workers, plain and pruned, against the
// NoCheckpoint campaign, and requires that forks were used. Forks live for
// one batch, so the checkpoint activity is the same at both worker counts.
func TestForkResumeEquiv(t *testing.T) {
	for _, bench := range rodinia.Names() {
		inst := equivBench(t, bench)
		for _, tech := range equivAsmTechs {
			tgt := equivTechTarget(t, inst, tech)
			modes := []PruneMode{PruneOff}
			if bench == "bfs" || bench == "lud" {
				modes = append(modes, PruneExact)
			}
			for _, prune := range modes {
				base := Campaign{Samples: 100, Seed: 31, MaxSteps: equivSteps, Prune: prune}
				direct := base
				direct.NoCheckpoint, direct.Workers = true, 2
				wantF, want := runFlow(t, tgt, direct)
				var first CheckpointSummary
				for _, workers := range []int{1, 3} {
					c := base
					c.Workers = workers
					f, got := runFlow(t, tgt, c)
					ctx := fmt.Sprintf("%s/%s prune=%v workers=%d", bench, tech, prune, workers)
					checkForkRecs(t, ctx, f, wantF, got, want)
					if workers == 1 {
						first = got.Checkpoint
						if f.sched.forks.Load() == 0 {
							t.Errorf("%s: no plan resumed from a fork", ctx)
						}
					} else if got.Checkpoint != first {
						t.Errorf("%s: checkpoint activity %+v differs from one worker's %+v", ctx, got.Checkpoint, first)
					}
				}
			}
		}
	}
}

// TestForkResumeEquivEdges drives one worker through plans placed on the
// edges of fork resume and checks each record against a NoCheckpoint
// worker's: two plans before the first snapshot (the second resumes from
// the first's fork), duplicate sites (the second cannot use the fork its
// twin took one site on, so it resumes from a checkpoint or cold-starts),
// faults on a checkpoint site count and one site either side of it, and
// multi-bit faults.
func TestForkResumeEquivEdges(t *testing.T) {
	const k = 64
	inst := equivBench(t, "lud")
	for _, tech := range equivAsmTechs {
		tgt := equivTechTarget(t, inst, tech)
		newEngine := func(c Campaign) (*asmEngine, goldenRun) {
			e, err := newAsmEngine(tgt, equivSteps)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(e.release)
			g, err := e.golden(c)
			if err != nil {
				t.Fatal(err)
			}
			return e, g
		}
		e, g := newEngine(Campaign{every: k})
		d, _ := newEngine(Campaign{NoCheckpoint: true})
		var plans []plannedFault
		add := func(site uint64, bits ...uint) {
			plans = append(plans, plannedFault{idx: len(plans), site: site, bit: bits[0], extra: bits[1:]})
		}
		add(3, 1)
		add(9, 60)
		add(9, 2)
		add(9, 2, 7, 40)
		for _, s := range []uint64{k - 1, k, k + 1, 3*k - 1, 3 * k, 3*k + 1} {
			add(s, 0)
			add(s, 33, 1)
		}
		add(g.sites/2, 5)
		add(g.sites/2+1, 6, 9)
		add(g.sites-1, 4)
		plans = plansBySite(plans)
		w, direct := e.clone(g.sched), d.clone(nil)
		for _, p := range plans {
			if got, want := w.run(p), direct.run(p); got != want {
				t.Errorf("%s plan site=%d bits=%d%v: record %+v != direct %+v", tech, p.site, p.bit, p.extra, got, want)
			}
		}
		s := g.sched
		if n := int64(len(plans)); s.restores.Load()+s.coldStarts.Load() != n {
			t.Errorf("%s: %d restores + %d cold starts != %d plans", tech, s.restores.Load(), s.coldStarts.Load(), n)
		}
		if s.forks.Load() == 0 {
			t.Errorf("%s: no plan resumed from a fork", tech)
		}
	}
}

// TestForkResumeEquivCompose runs composed campaigns' plans through one
// forking worker in site-ordered batches, as the campaign does, and checks
// each record against a fresh worker's, which holds no fork and resumes
// from the section entry.
func TestForkResumeEquivCompose(t *testing.T) {
	for _, bench := range []string{"bfs", "lud", "knn"} {
		inst := equivBench(t, bench)
		for _, tech := range equivAsmTechs {
			tgt := equivTechTarget(t, inst, tech)
			c := Campaign{Samples: 80, Seed: 17, MaxSteps: equivSteps, Compose: ComposeOn}
			f := &campaign{c: c}
			e, err := newAsmEngine(tgt, equivSteps)
			if err != nil {
				t.Fatal(err)
			}
			f.eng = e
			if f.g, err = e.golden(c); err != nil {
				t.Fatal(err)
			}
			f.comp = newComposition(f)
			e.planned()
			f.sched = f.g.sched
			plans := plansBySite(f.plans)
			run := f.newWorker()
			for len(plans) > 0 {
				batch := plans[:min(16, len(plans))]
				plans = plans[len(batch):]
				run(batch, func(p plannedFault, got PlanRecord) {
					want := f.comp.worker(e.clone(f.sched)).run(p)
					if got != want {
						t.Errorf("%s/%s plan %d site=%d: record %+v != fresh worker's %+v", bench, tech, p.idx, p.site, got, want)
					}
				})
			}
			if f.sched.forks.Load() == 0 {
				t.Errorf("%s/%s: no plan resumed from a fork", bench, tech)
			}
			e.release()
		}
	}
}

// TestPlansBySite: the packed-key sort orders plans as a stable sort by
// site does, on sites that fit its key and on sites past 2^32.
func TestPlansBySite(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, hi := range []int64{40, 1 << 40} {
		plans := make([]plannedFault, 500)
		for i := range plans {
			plans[i] = plannedFault{idx: i, site: uint64(rng.Int63n(hi))}
		}
		want := slices.Clone(plans)
		slices.SortStableFunc(want, func(a, b plannedFault) int { return cmp.Compare(a.site, b.site) })
		got := plansBySite(plans)
		for i := range want {
			if got[i].idx != want[i].idx {
				t.Fatalf("sites below %d: position %d holds plan %d, want %d", hi, i, got[i].idx, want[i].idx)
			}
		}
	}
}
