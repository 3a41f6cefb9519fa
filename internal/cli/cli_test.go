package cli

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ferrum/internal/fi"
	"ferrum/internal/harness"
	"ferrum/internal/obs"
)

// failSink is a journal sink whose syncs fail after the first (the meta
// record's), like a disk that fills up mid-run.
type failSink struct {
	bytes.Buffer
	syncs int
}

var errSync = errors.New("sync: no space left on device")

func (s *failSink) Sync() error {
	if s.syncs++; s.syncs > 1 {
		return errSync
	}
	return nil
}

func (s *failSink) Close() error { return nil }

func parse(t *testing.T, argv ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(argv); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRunReportsJournalCloseError: a journal whose final flush fails makes
// the invocation fail, whether the body froze the session itself or left
// that to Run.
func TestRunReportsJournalCloseError(t *testing.T) {
	old := createJournal
	t.Cleanup(func() { createJournal = old })
	createJournal = func(_ string, meta fi.JournalMeta) (*fi.Journal, error) {
		return fi.NewStreamJournal(&failSink{}, meta)
	}
	for _, freeze := range []bool{false, true} {
		f := parse(t, "-journal", filepath.Join(t.TempDir(), "j.ndjson"))
		err := f.Run("test", nil, &bytes.Buffer{}, fi.JournalMeta{Tool: "test"}, func(s *Session) error {
			s.Journal.Plan("k", 0, fi.PlanRecord{Outcome: fi.Benign, Site: 1})
			if freeze {
				return s.Freeze()
			}
			return nil
		}, nil)
		if !errors.Is(err, errSync) {
			t.Errorf("freeze=%v: Run = %v, want the sync failure", freeze, err)
		}
	}
}

// TestRunJournalLifecycle: -resume needs -journal; a resume under a
// different configuration is refused and leaves the journal's bytes alone;
// a matching resume hands the body the loaded state.
func TestRunJournalLifecycle(t *testing.T) {
	noop := func(*Session) error { return nil }
	if err := parse(t, "-resume").Run("test", nil, &bytes.Buffer{}, fi.JournalMeta{}, noop, nil); err == nil ||
		!strings.Contains(err.Error(), "-resume requires -journal") {
		t.Errorf("-resume without -journal: %v", err)
	}

	path := filepath.Join(t.TempDir(), "j.ndjson")
	meta := fi.JournalMeta{Tool: "test", Seed: 7, Samples: 10}
	if err := parse(t, "-journal", path).Run("test", nil, &bytes.Buffer{}, meta, func(s *Session) error {
		s.Journal.Plan("k", 0, fi.PlanRecord{Outcome: fi.SDC, Site: 1})
		return nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	other := meta
	other.Seed = 9
	err = parse(t, "-journal", path, "-resume").Run("test", nil, &bytes.Buffer{}, other, noop, nil)
	if err == nil || !strings.Contains(err.Error(), "journal seed=7, invocation seed=9") {
		t.Errorf("mismatched resume: %v", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Error("a refused resume changed the journal")
	}
	var stderr bytes.Buffer
	if err := parse(t, "-journal", path, "-resume").Run("test", nil, &stderr, meta, func(s *Session) error {
		if o := s.Resume.Cell("k").Plans[0].Outcome; o != fi.SDC {
			t.Errorf("resumed plan 0 = %v, want sdc", o)
		}
		return nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "journal: resuming") {
		t.Errorf("stderr missing the resume notice: %q", stderr.String())
	}
}

// TestRunJournalRecordsCounted: for a fresh journaled run, journal.records
// equals the journal's records, 1 meta + 1 per plan + 1 per cell, as
// fistat -reconcile checks it. The meta record is written before the
// session binds its observer, and the experiment binds it again.
func TestRunJournalRecordsCounted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ndjson")
	f := parse(t, "-journal", path, "-samples", "40")
	f.Opts.Benchmarks = []string{"bfs"}
	var snap obs.Snapshot
	err := f.Run("test", nil, &bytes.Buffer{}, f.Opts.Meta("test", "fig10"), func(s *Session) error {
		opts := f.Opts
		opts.Obs, opts.Journal = s.Obs, s.Journal
		_, err := harness.Fig10(opts)
		return err
	}, func(sn obs.Snapshot, _ time.Duration, _ []obs.Span) { snap = sn })
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	plans, cells := snap.Counters[obs.MPlans], snap.Counters[obs.MCampaigns]
	lines := int64(bytes.Count(data, []byte("\n")))
	if got := snap.Counters[obs.MJournalRecords]; got != 1+plans+cells || got != lines || plans == 0 {
		t.Errorf("journal.records = %d, want 1 + %d plans + %d cells = %d journal lines", got, plans, cells, lines)
	}
}
