package harness

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ferrum/internal/fi"
	"ferrum/internal/obs"
)

// TestCellWatchdogTimeout: a wedged cell is canceled after CellTimeout and
// reported as ErrCellTimeout, while its sibling cells run to completion on
// the other workers.
func TestCellWatchdogTimeout(t *testing.T) {
	ob := obs.New()
	opts := Options{CellWorkers: 2, CellTimeout: 30 * time.Millisecond, Obs: ob}.withDefaults()
	s := newScheduler("wd", opts)
	var ok0, ok2 atomic.Bool
	cells := []cellSpec{
		{name: "ok0", run: func(cc *cellCtx) error { ok0.Store(true); return nil }},
		{name: "wedged", run: func(cc *cellCtx) error {
			if cc.cancel == nil {
				t.Error("CellTimeout set but the cell received no cancel channel")
				return nil
			}
			<-cc.cancel
			return fi.ErrCampaignCanceled
		}},
		{name: "ok2", run: func(cc *cellCtx) error { ok2.Store(true); return nil }},
	}
	err := s.run(cells)
	if !errors.Is(err, ErrCellTimeout) {
		t.Fatalf("err = %v, want ErrCellTimeout", err)
	}
	if !strings.Contains(err.Error(), "wedged") {
		t.Errorf("timeout error does not name the cell: %v", err)
	}
	if !ok0.Load() || !ok2.Load() {
		t.Errorf("siblings of the wedged cell did not complete: ok0=%v ok2=%v", ok0.Load(), ok2.Load())
	}
	snap := ob.Reg.Snapshot()
	if n := snap.Counters[obs.MSchedTimeouts]; n != 1 {
		t.Errorf("sched.timeouts = %d, want 1", n)
	}
}

// TestCellTimeoutRunsOnce: a watchdog-canceled cell runs once and is
// counted as one timeout.
func TestCellTimeoutRunsOnce(t *testing.T) {
	ob := obs.New()
	opts := Options{CellWorkers: 1, CellTimeout: 20 * time.Millisecond, Obs: ob}.withDefaults()
	s := newScheduler("wd", opts)
	attempts := 0
	err := s.run([]cellSpec{{name: "wedged", run: func(cc *cellCtx) error {
		attempts++
		<-cc.cancel
		return fi.ErrCampaignCanceled
	}}})
	if !errors.Is(err, ErrCellTimeout) {
		t.Fatalf("err = %v, want ErrCellTimeout", err)
	}
	if attempts != 1 {
		t.Errorf("timed-out cell ran %d attempts, want 1", attempts)
	}
	if n := ob.Reg.Snapshot().Counters[obs.MSchedTimeouts]; n != 1 {
		t.Errorf("sched.timeouts = %d, want 1", n)
	}
}

// TestWatchdogCancelsCampaign: the watchdog's cancel channel reaches the
// fi.Campaign batch loop through scheduler.campaign, so a real experiment
// cell whose budget expires is cut short and reported as a timeout.
func TestWatchdogCancelsCampaign(t *testing.T) {
	// Enough samples (and no checkpoint fast-forwarding) that every cell
	// outlives the armed watchdog by orders of magnitude, whatever the
	// interpreter's speed; the 1µs timeout then always cancels mid-campaign.
	opts := Options{
		Samples: 4000, Seed: 7, Benchmarks: []string{"bfs"},
		CellWorkers: 2, CellTimeout: time.Microsecond, NoCheckpoint: true,
	}
	_, err := Fig10(opts)
	if !errors.Is(err, ErrCellTimeout) {
		t.Fatalf("err = %v, want ErrCellTimeout", err)
	}
}

// crashSuiteJournal rewrites a completed suite journal as a crash would have
// left it: meta, the first keep plan records, no cell records, and a torn
// half-record at the tail.
func crashSuiteJournal(t *testing.T, path string, keep int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	kept := 0
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var r struct {
			T string `json:"t"`
		}
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
	body := strings.Join(out, "\n") + "\n" + `{"t":"plan","c":"fig10/bfs/raw","i":`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFig10JournalResume: the suite-level durable contract — a journaled
// Fig10 run killed mid-suite and resumed renders a byte-identical table,
// and a fully journaled suite resumes without re-running a single campaign.
func TestFig10JournalResume(t *testing.T) {
	baseOpts := func() Options {
		return Options{Samples: 40, Seed: 7, CellWorkers: 2, Benchmarks: []string{"bfs"}}
	}
	want, err := Fig10(baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	ref := RenderFig10(want)

	path := filepath.Join(t.TempDir(), "suite.ndjson")
	meta := fi.JournalMeta{Tool: "test", Exp: "fig10", Seed: 7, Samples: 40, Benchmarks: []string{"bfs"}}
	j, err := fi.CreateJournal(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	o := baseOpts()
	o.Journal = j
	full, err := Fig10(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if RenderFig10(full) != ref {
		t.Fatal("journaled run's table differs from the un-journaled baseline")
	}

	// Kill: keep 50 of the 160 plan records, lose every cell record, leave
	// a torn record at the tail.
	crashSuiteJournal(t, path, 50)

	ob := obs.New()
	st, j2, err := fi.ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.TornDropped {
		t.Error("torn tail not reported on resume")
	}
	if err := st.Meta.Check(meta); err != nil {
		t.Fatal(err)
	}
	o2 := baseOpts()
	o2.Journal, o2.Resume, o2.Obs = j2, st, ob
	got, err := Fig10(o2)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if RenderFig10(got) != ref {
		t.Errorf("resumed table is not byte-identical:\n%s\n---\n%s", RenderFig10(got), ref)
	}
	snap := ob.Reg.Snapshot()
	if n := snap.Counters[obs.MJournalSkippedPlans]; n != 50 {
		t.Errorf("journal.skipped_plans = %d, want 50", n)
	}
	if n := snap.Counters[obs.MPlans]; n != 160 {
		t.Errorf("resumed fi.plans = %d, want the uninterrupted total 160", n)
	}

	// Second resume: all four cells are complete now; the suite renders the
	// same table from cell records alone.
	ob3 := obs.New()
	st3, j3, err := fi.ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if complete, partial := st3.Cells(); complete != 4 || partial != 0 {
		t.Fatalf("cells = %d complete, %d partial; want 4, 0", complete, partial)
	}
	o3 := baseOpts()
	o3.Journal, o3.Resume, o3.Obs = j3, st3, ob3
	got3, err := Fig10(o3)
	if err != nil {
		t.Fatal(err)
	}
	if err := j3.Close(); err != nil {
		t.Fatal(err)
	}
	if RenderFig10(got3) != ref {
		t.Error("fully journaled resume's table is not byte-identical")
	}
	snap3 := ob3.Reg.Snapshot()
	if n := snap3.Counters[obs.MJournalSkippedCells]; n != 4 {
		t.Errorf("journal.skipped_cells = %d, want 4", n)
	}
	if n := snap3.Counters[obs.MPlans]; n != 160 {
		t.Errorf("cell-replayed fi.plans = %d, want 160", n)
	}
	if n := snap3.Counters[obs.MCells]; n != 4 {
		t.Errorf("sched.cells = %d, want 4 (skipped cells still count as scheduled)", n)
	}
}
