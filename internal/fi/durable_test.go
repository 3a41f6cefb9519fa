package fi

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ferrum/internal/obs"
)

// These tests pin the durable-campaign contract: a campaign interrupted at
// an arbitrary point and resumed from its journal produces a Result
// byte-identical to an uninterrupted run, for both injection levels and any
// worker count, with reconciled fi.*/journal.* counters.

// crashJournal rewrites a completed journal as a killed process would have
// left it: the meta record, the first keep plan records (in write order),
// no cell record, and a torn half-written record at the tail.
func crashJournal(t *testing.T, path, key string, keep int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	kept := 0
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var r journalRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		switch r.T {
		case "meta":
			out = append(out, line)
		case "plan":
			if kept < keep {
				out = append(out, line)
				kept++
			}
		}
	}
	if kept < keep {
		t.Fatalf("journal holds %d plan records, want >= %d", kept, keep)
	}
	body := strings.Join(out, "\n") + "\n" + `{"t":"plan","c":"` + key + `","i":`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// testKillResume drives the full durable lifecycle for one campaign runner:
// baseline → journaled run → simulated crash (truncation + torn tail) →
// partial resume → full-cell resume, requiring the baseline Result at every
// stage and reconciled counters.
func testKillResume(t *testing.T, workers int, run func(Campaign) (Result, error)) {
	t.Helper()
	const samples, keep = 80, 30
	base := Campaign{Samples: samples, Seed: 12345, MaxSteps: equivSteps, Workers: workers}
	want, err := run(base)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	check := func(stage string, got Result) {
		t.Helper()
		if got.Counts != want.Counts || got.Samples != want.Samples {
			t.Errorf("%s: counts %v (n=%d) != baseline %v (n=%d)",
				stage, got.Counts, got.Samples, want.Counts, want.Samples)
		}
		if got.DynSites != want.DynSites || !slices.Equal(got.Golden, want.Golden) {
			t.Errorf("%s: golden-run fields differ from baseline", stage)
		}
	}

	path := journalPath(t)
	meta := JournalMeta{Tool: "test", Seed: base.Seed, Samples: samples}
	j, err := CreateJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	c := base
	c.Journal, c.Key = j, "cell"
	full, err := run(c)
	if err != nil {
		t.Fatalf("journaled run: %v", err)
	}
	check("journaled run", full)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	crashJournal(t, path, "cell", keep)

	ob := obs.New()
	st, j2, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.TornDropped {
		t.Error("crash journal's torn tail not reported")
	}
	if err := st.Meta.Check(meta); err != nil {
		t.Fatal(err)
	}
	cs := st.Cell("cell")
	if cs == nil || cs.Result != nil || len(cs.Plans) != keep {
		t.Fatalf("crash journal cell state = %+v, want partial with %d plans", cs, keep)
	}
	j2.Observe(ob)
	c2 := base
	c2.Journal, c2.Key, c2.Prior = j2, "cell", cs
	c2.Obs = ob.Cell("cell", 0)
	got, err := run(c2)
	if err != nil {
		t.Fatalf("partial resume: %v", err)
	}
	check("partial resume", got)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	snap := ob.Reg.Snapshot()
	if n := snap.Counters[obs.MJournalSkippedPlans]; n != keep {
		t.Errorf("journal.skipped_plans = %d, want %d", n, keep)
	}
	// fi.plans reconciles with the uninterrupted total: replayed + re-run.
	if n := snap.Counters[obs.MPlans]; n != samples {
		t.Errorf("resumed fi.plans = %d, want %d", n, samples)
	}

	// Third pass: the cell record exists now, so the campaign is answered
	// without a golden run or a single injection, and Progress still sees
	// the full sample count.
	ob2 := obs.New()
	st2, j3, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cs2 := st2.Cell("cell")
	if cs2 == nil || cs2.Result == nil {
		t.Fatalf("cell record missing after completed resume: %+v", cs2)
	}
	if len(cs2.Plans) != samples {
		t.Errorf("resumed journal holds %d plan records, want %d", len(cs2.Plans), samples)
	}
	var progressed atomic.Int64
	c3 := base
	c3.Journal, c3.Key, c3.Prior = j3, "cell", cs2
	c3.Obs = ob2.Cell("cell", 0)
	c3.Progress = func(done int) { progressed.Store(int64(done)) }
	again, err := run(c3)
	if err != nil {
		t.Fatalf("full-cell resume: %v", err)
	}
	check("full-cell resume", again)
	if err := j3.Close(); err != nil {
		t.Fatal(err)
	}
	if progressed.Load() != samples {
		t.Errorf("full-cell resume reported progress %d, want %d", progressed.Load(), samples)
	}
	snap2 := ob2.Reg.Snapshot()
	if n := snap2.Counters[obs.MJournalSkippedCells]; n != 1 {
		t.Errorf("journal.skipped_cells = %d, want 1", n)
	}
	if n := snap2.Counters[obs.MPlans]; n != samples {
		t.Errorf("cell-replayed fi.plans = %d, want %d", n, samples)
	}
	if n := snap2.Counters[obs.MCkptCampaigns]; n != 0 {
		t.Errorf("cell replay counted %d ckpt.campaigns; no work happened", n)
	}
}

func TestKillResumeAsm(t *testing.T) {
	inst := equivBench(t, "bfs")
	tgt := equivAsmTarget(t, inst, false)
	for _, workers := range []int{1, 8} {
		testKillResume(t, workers, func(c Campaign) (Result, error) {
			return RunAsmCampaign(tgt, c)
		})
	}
}

func TestKillResumeIR(t *testing.T) {
	inst := equivBench(t, "bfs")
	tgt := equivIRTarget(t, inst, false)
	for _, workers := range []int{1, 8} {
		testKillResume(t, workers, func(c Campaign) (Result, error) {
			return RunIRCampaign(tgt, c)
		})
	}
}

// TestKillResumeTruncationSweep kills a journaled 80-plan campaign at every
// record boundary of its journal, in the middle of every record and just
// before every record's newline, for a plain asm campaign and a composed
// one (whose plan records carry "fb"). Every resume must return the
// uninterrupted Result — counts, samples, latency and the compose ledger;
// only the checkpoint activity of the process that did the work may
// differ — and leave a journal whose canonical form equals the
// uninterrupted run's. A cut inside the meta record leaves nothing to
// check the invocation against, so it is refused.
func TestKillResumeTruncationSweep(t *testing.T) {
	tgt := asmTarget(t, false)
	for _, mode := range []ComposeMode{ComposeOff, ComposeOn} {
		t.Run("compose="+mode.String(), func(t *testing.T) {
			t.Parallel()
			sweepTruncations(t, tgt, Campaign{Samples: 80, Seed: 12345, MaxSteps: equivSteps,
				Workers: 1, Compose: mode})
		})
	}
}

// sweepTruncations is one campaign's sweep for TestKillResumeTruncationSweep.
func sweepTruncations(t *testing.T, tgt AsmTarget, c Campaign) {
	run := func(c Campaign) Result {
		t.Helper()
		res, err := RunAsmCampaign(tgt, c)
		if err != nil {
			t.Fatal(err)
		}
		res.Checkpoint = CheckpointSummary{}
		return res
	}
	want := run(c)
	meta := c.Meta()
	meta.Tool = "test"
	path := journalPath(t)
	j, err := CreateJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	jc := c
	jc.Journal, jc.Key = j, "cell"
	run(jc)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantCanon := canonical(t, data)
	if c.Compose != ComposeOff && !bytes.Contains(data, []byte(`"fb":true`)) {
		t.Fatal("composed journal holds no fallback plan; the sweep would not cover fb")
	}

	// Cut points: the middle of every record, every record whose newline
	// is all that is missing, and every record boundary after the meta
	// record.
	var cuts []int
	metaEnd := bytes.IndexByte(data, '\n') + 1
	for start := 0; start < len(data); {
		end := start + bytes.IndexByte(data[start:], '\n') + 1
		cuts = append(cuts, (start+end)/2, end-1)
		if end >= metaEnd {
			cuts = append(cuts, end)
		}
		start = end
	}
	for _, cut := range cuts {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, j2, err := ResumeJournal(path)
		if cut < metaEnd-1 {
			if err == nil {
				j2.Close()
				t.Errorf("journal cut at %d, inside its meta record, resumed", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		rc := c
		rc.Journal, rc.Key, rc.Prior = j2, "cell", st.Cell("cell")
		got := run(rc)
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cut %d/%d: resumed result differs\ngot  %+v\nwant %+v", cut, len(data), got, want)
		}
		resumed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := canonical(t, resumed); got != wantCanon {
			t.Errorf("cut %d/%d: resumed journal's canonical form differs\ngot\n%s\nwant\n%s",
				cut, len(data), got, wantCanon)
		}
	}
}

// canonical is a journal's canonical form.
func canonical(t *testing.T, data []byte) string {
	t.Helper()
	st, err := LoadJournalData(data, "journal")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := st.WriteCanonical(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestCampaignCancelMidRun interrupts a live journaled campaign through the
// Cancel channel — the watchdog path — and resumes it from the real journal
// the canceled process wrote.
func TestCampaignCancelMidRun(t *testing.T) {
	inst := equivBench(t, "bfs")
	tgt := equivAsmTarget(t, inst, false)
	base := Campaign{Samples: 80, Seed: 12345, MaxSteps: equivSteps, Workers: 1}
	want, err := RunAsmCampaign(tgt, base)
	if err != nil {
		t.Fatal(err)
	}

	path := journalPath(t)
	j, err := CreateJournal(path, JournalMeta{Tool: "test", Seed: base.Seed, Samples: base.Samples})
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	var once sync.Once
	c := base
	c.Journal, c.Key, c.Cancel = j, "cell", cancel
	c.Progress = func(done int) {
		if done >= 32 {
			once.Do(func() { close(cancel) })
		}
	}
	if _, err := RunAsmCampaign(tgt, c); !errors.Is(err, ErrCampaignCanceled) {
		t.Fatalf("canceled campaign returned %v, want ErrCampaignCanceled", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st, j2, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cs := st.Cell("cell")
	if cs == nil || cs.Result != nil {
		t.Fatalf("canceled campaign journaled a cell record: %+v", cs)
	}
	if len(cs.Plans) == 0 || len(cs.Plans) >= base.Samples {
		t.Fatalf("canceled campaign journaled %d plans, want a strict subset", len(cs.Plans))
	}
	c2 := base
	c2.Journal, c2.Key, c2.Prior = j2, "cell", cs
	got, err := RunAsmCampaign(tgt, c2)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Counts != want.Counts || got.Samples != want.Samples {
		t.Errorf("resume after cancel: counts %v != baseline %v", got.Counts, want.Counts)
	}
}

// TestCampaignCancelImmediate: an already-fired Cancel stops the campaign at
// the first batch boundary for any worker count.
func TestCampaignCancelImmediate(t *testing.T) {
	tgt := asmTarget(t, false)
	cancel := make(chan struct{})
	close(cancel)
	for _, workers := range []int{1, 8} {
		c := Campaign{Samples: 40, Seed: 3, Workers: workers, Cancel: cancel}
		if _, err := RunAsmCampaign(tgt, c); !errors.Is(err, ErrCampaignCanceled) {
			t.Errorf("workers=%d: err = %v, want ErrCampaignCanceled", workers, err)
		}
	}
}

// TestMakePlansRespectsWidth: sampled bit numbers land inside each site's
// destination width — narrow destinations (flags, byte moves) never draw an
// out-of-range bit the injector would have to wrap, and SIMD destinations
// wider than 64 bits actually receive upper-lane faults.
func TestMakePlansRespectsWidth(t *testing.T) {
	widths := []uint{4, 8, 16, 32, 64, 256, 512}
	width := func(site uint64) uint { return widths[site%uint64(len(widths))] }
	plans := mustPlans(t, Campaign{Samples: 4000, Seed: 42}, uint64(len(widths)), width)
	if len(plans) != 4000 {
		t.Fatalf("planned %d faults, want 4000", len(plans))
	}
	sawUpper := false
	narrowBits := map[uint]bool{}
	for i, p := range plans {
		if p.idx != i {
			t.Fatalf("plan %d carries generation index %d", i, p.idx)
		}
		w := width(p.site)
		if p.bit >= w {
			t.Fatalf("plan %d: bit %d sampled for a %d-bit destination", i, p.bit, w)
		}
		if p.bit >= 64 {
			sawUpper = true
		}
		if w == 4 {
			narrowBits[p.bit] = true
		}
	}
	if !sawUpper {
		t.Error("destinations wider than 64 bits never received an upper-lane fault (the flat-[0,64) regression)")
	}
	for b := uint(0); b < 4; b++ {
		if !narrowBits[b] {
			t.Errorf("4-bit destinations never drew bit %d", b)
		}
	}
	// A nil width map is the IR case: every site is 64 bits wide.
	for _, p := range mustPlans(t, Campaign{Samples: 2000, Seed: 1}, 10, nil) {
		if p.bit >= 64 {
			t.Fatalf("nil-width plan sampled bit %d", p.bit)
		}
	}
}

// TestMakePlansMultiBitNarrowDest: BitsPerFault larger than the destination
// width is capped at the width — a 4-bit destination has only 4 distinct
// bits, and resampling for more would never terminate.
func TestMakePlansMultiBitNarrowDest(t *testing.T) {
	width := func(uint64) uint { return 4 }
	plans := mustPlans(t, Campaign{Samples: 50, Seed: 7, BitsPerFault: 8}, 3, width)
	for i, p := range plans {
		if len(p.extra) != 3 {
			t.Fatalf("plan %d: %d extra bits for a 4-bit destination, want 3 (cap minus primary)", i, len(p.extra))
		}
		seen := map[uint]bool{p.bit: true}
		for _, e := range p.extra {
			if e >= 4 {
				t.Fatalf("plan %d: extra bit %d outside the 4-bit destination", i, e)
			}
			if seen[e] {
				t.Fatalf("plan %d: duplicate bit %d", i, e)
			}
			seen[e] = true
		}
	}
}

// TestProfilePronenessParallelMatchesSerial pins the parity bugfix: the
// profiling campaign routes through the same worker/checkpoint engine as
// RunAsmCampaign, so a parallel profile deep-equals a serial one.
func TestProfilePronenessParallelMatchesSerial(t *testing.T) {
	inst := equivBench(t, "bfs")
	tgt := equivAsmTarget(t, inst, false)
	base := Campaign{Samples: 300, Seed: 13, MaxSteps: equivSteps}
	serial := base
	serial.Workers = 1
	serial.NoCheckpoint = true
	want, err := ProfileProneness(tgt, serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par := base
		par.Workers = workers
		got, err := ProfileProneness(tgt, par)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d (checkpointed) profile differs from serial direct profile", workers)
		}
	}
}

// TestProfilePronenessPlumbing: Workers, Progress and Obs all reach
// the profiling campaign (the regression was ProfileProneness ignoring every
// one of them).
func TestProfilePronenessPlumbing(t *testing.T) {
	inst := equivBench(t, "bfs")
	tgt := equivAsmTarget(t, inst, false)
	ob := obs.New()
	var high atomic.Int64
	c := Campaign{
		Samples: 200, Seed: 13, MaxSteps: equivSteps, Workers: 4,
		Obs: ob.Cell("profile", 0),
		Progress: func(done int) {
			for {
				h := high.Load()
				if int64(done) <= h || high.CompareAndSwap(h, int64(done)) {
					return
				}
			}
		},
	}
	rows, err := ProfileProneness(tgt, c)
	if err != nil {
		t.Fatal(err)
	}
	if got := high.Load(); got != 200 {
		t.Errorf("Progress high-water mark = %d, want 200", got)
	}
	snap := ob.Reg.Snapshot()
	if n := snap.Counters[obs.MCkptCampaigns]; n != 1 {
		t.Errorf("ckpt.campaigns = %d, want 1", n)
	}
	if r, cs := snap.Counters[obs.MCkptRestores], snap.Counters[obs.MCkptColdStarts]; r+cs != 200 {
		t.Errorf("ckpt restores %d + cold starts %d != 200", r, cs)
	}
	if n := snap.Counters[obs.MPlans]; n != 200 {
		t.Errorf("fi.plans = %d, want 200", n)
	}
	if n := snap.Counters[obs.MCampaigns]; n != 1 {
		t.Errorf("fi.campaigns = %d, want 1", n)
	}
	total := 0
	for _, r := range rows {
		total += r.Faults
	}
	if total != 200 {
		t.Errorf("profile rows aggregate %d faults, want 200", total)
	}
}

// TestSiteStatsOutcomeInvariant pins the dropped-outcome bugfix: every
// outcome class is counted, so Faults == Benigns+SDCs+Detected+Crashes+Hangs
// at every site and the rows account for every sample — on a protected
// target, Detected outcomes (the ones SiteStats used to drop) must show up.
func TestSiteStatsOutcomeInvariant(t *testing.T) {
	inst := equivBench(t, "bfs")
	tgt := equivAsmTarget(t, inst, true)
	c := Campaign{Samples: 300, Seed: 7, MaxSteps: equivSteps, Workers: 4}
	rows, err := ProfileProneness(tgt, c)
	if err != nil {
		t.Fatal(err)
	}
	total, detected := 0, 0
	for _, r := range rows {
		if sum := r.Benigns + r.SDCs + r.Detected + r.Crashes + r.Hangs; sum != r.Faults {
			t.Errorf("site %v: outcome fields sum to %d, Faults = %d", r.Loc, sum, r.Faults)
		}
		total += r.Faults
		detected += r.Detected
	}
	if total != c.Samples {
		t.Errorf("rows aggregate %d faults, want every one of the %d samples", total, c.Samples)
	}
	if detected == 0 {
		t.Error("protected target profiled zero Detected outcomes (the dropped-outcome regression)")
	}
}

// TestProfilePronenessJournalReplay: a profile resumed from a journal —
// including one whose campaign completed, i.e. a cell record exists —
// replays the per-plan outcomes and reproduces the fresh profile exactly.
// The cell record alone cannot answer a profile (no per-site attribution),
// so the engine must fall through to plan replay.
func TestProfilePronenessJournalReplay(t *testing.T) {
	inst := equivBench(t, "bfs")
	tgt := equivAsmTarget(t, inst, false)
	base := Campaign{Samples: 120, Seed: 13, MaxSteps: equivSteps, Workers: 2}
	want, err := ProfileProneness(tgt, base)
	if err != nil {
		t.Fatal(err)
	}

	path := journalPath(t)
	j, err := CreateJournal(path, JournalMeta{Tool: "test", Seed: base.Seed, Samples: base.Samples})
	if err != nil {
		t.Fatal(err)
	}
	c := base
	c.Journal, c.Key = j, "prof"
	if _, err := RunAsmCampaign(tgt, c); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cs := st.Cell("prof")
	if cs == nil || cs.Result == nil || len(cs.Plans) != base.Samples {
		t.Fatalf("journal cell state = %+v, want complete with %d plans", cs, base.Samples)
	}
	c2 := base
	c2.Prior = cs
	got, err := ProfileProneness(tgt, c2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("journal-replayed profile differs from fresh profile")
	}
}
