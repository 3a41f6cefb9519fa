package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// swapStderr redirects the package stderr writer to a buffer for one test.
func swapStderr(t *testing.T) *strings.Builder {
	t.Helper()
	old := errw
	var buf strings.Builder
	errw = &buf
	t.Cleanup(func() { errw = old })
	return &buf
}

// TestRunJournalResume: a single-campaign journal survives a simulated kill
// and -resume reproduces the uninterrupted output byte for byte.
func TestRunJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ndjson")
	args := []string{"-bench", "bfs", "-technique", "ferrum", "-samples", "80"}
	swapStderr(t)

	var want strings.Builder
	if err := run(args, &want); err != nil {
		t.Fatal(err)
	}
	var out1 strings.Builder
	if err := run(append(args, "-journal", path), &out1); err != nil {
		t.Fatal(err)
	}
	if out1.String() != want.String() {
		t.Error("journaled campaign's stdout differs from the baseline")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	var out2 strings.Builder
	if err := run(append(args, "-journal", path, "-resume"), &out2); err != nil {
		t.Fatal(err)
	}
	if out2.String() != want.String() {
		t.Errorf("resumed stdout is not byte-identical:\n%s\n---\n%s", out2.String(), want.String())
	}

	// Second resume: the cell record answers the campaign outright.
	var out3 strings.Builder
	if err := run(append(args, "-journal", path, "-resume"), &out3); err != nil {
		t.Fatal(err)
	}
	if out3.String() != want.String() {
		t.Error("fully journaled resume's stdout is not byte-identical")
	}
}

// TestRunJournalGuards: -resume needs -journal; a journal recorded under a
// different technique is refused (its plans answer different campaigns).
func TestRunJournalGuards(t *testing.T) {
	swapStderr(t)
	var out strings.Builder
	if err := run([]string{"-bench", "bfs", "-resume"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-resume requires -journal") {
		t.Errorf("-resume without -journal: err = %v", err)
	}

	path := filepath.Join(t.TempDir(), "campaign.ndjson")
	if err := run([]string{"-bench", "bfs", "-technique", "raw", "-samples", "60", "-journal", path}, &out); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-bench", "bfs", "-technique", "ferrum", "-samples", "60", "-journal", path, "-resume"}, &out)
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Errorf("mismatched -technique resume: err = %v", err)
	}
}

// TestRunEarlyStopFlag: -ci-width truncates the campaign and reports the
// effective sample count on stdout and the stop notice on stderr.
func TestRunEarlyStopFlag(t *testing.T) {
	stderr := swapStderr(t)
	var out strings.Builder
	if err := run([]string{"-bench", "bfs", "-technique", "raw", "-samples", "256", "-ci-width", "0.25"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "samples: 64") {
		t.Errorf("stdout missing truncated sample count:\n%s", out.String())
	}
	if !strings.Contains(stderr.String(), "early stop") {
		t.Errorf("stderr missing early-stop notice:\n%s", stderr.String())
	}
}

// TestRunComposedResumeAcrossK: under compose the checkpoint spacing K cuts
// the sections the plans are drawn from, so a journal recorded at one K
// must not resume at another — and resumes exactly at its own.
func TestRunComposedResumeAcrossK(t *testing.T) {
	swapStderr(t)
	path := filepath.Join(t.TempDir(), "composed.ndjson")
	args := []string{"-bench", "bfs", "-technique", "raw", "-samples", "200", "-compose", "on"}
	at := func(k string, extra ...string) []string {
		return append(append(append([]string(nil), args...), "-checkpoint-every", k, "-journal", path), extra...)
	}
	var want strings.Builder
	if err := run(at("100"), &want); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if err := os.WriteFile(path, []byte(strings.Join(lines[:101], "")), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run(at("300", "-resume"), &out); err == nil || !strings.Contains(err.Error(), "checkpoint_every") {
		t.Errorf("resume at K=300 of a K=100 journal: err = %v, want a checkpoint_every mismatch", err)
	}
	if err := run(at("100", "-resume"), &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != want.String() {
		t.Errorf("resumed composed table differs:\n%s\n---\n%s", out.String(), want.String())
	}
}

// TestRunRejectsBeforeJournal: an invocation with an unknown technique or
// level fails before the journal is opened, leaving an existing journal's
// bytes untouched.
func TestRunRejectsBeforeJournal(t *testing.T) {
	swapStderr(t)
	path := filepath.Join(t.TempDir(), "campaign.ndjson")
	var out strings.Builder
	if err := run([]string{"-bench", "bfs", "-technique", "raw", "-samples", "60", "-journal", path}, &out); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]string{
		{"-technique", "bogus"},
		{"-level", "bogus"},
		{"-level", "ir", "-technique", "ferrum"},
		{"-prune", "dead", "-compose", "on"},
	} {
		argv := append([]string{"-bench", "bfs", "-samples", "60", "-journal", path}, bad...)
		if err := run(argv, &out); err == nil {
			t.Errorf("%v accepted", bad)
		}
		if after, _ := os.ReadFile(path); string(after) != string(before) {
			t.Fatalf("%v changed the existing journal", bad)
		}
	}
}
