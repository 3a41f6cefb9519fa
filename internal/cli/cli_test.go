package cli

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ferrum/internal/fi"
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
			s.Journal.Plan("k", 0, fi.Benign, 1, 0, false, false)
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
		s.Journal.Plan("k", 0, fi.SDC, 1, 0, false, false)
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
		if o := s.Resume.Cell("k").Plans[0]; o != fi.SDC {
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
