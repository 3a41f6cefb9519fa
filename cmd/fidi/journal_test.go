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

// TestRunComposedResume: a composed journal cut mid-campaign resumes at
// the K the campaign derives again, and renders the uninterrupted table
// byte for byte.
func TestRunComposedResume(t *testing.T) {
	swapStderr(t)
	path := filepath.Join(t.TempDir(), "composed.ndjson")
	args := []string{"-bench", "bfs", "-technique", "raw", "-samples", "200", "-compose", "on", "-journal", path}
	var want strings.Builder
	if err := run(args, &want); err != nil {
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
	if err := run(append(args, "-resume"), &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != want.String() {
		t.Errorf("resumed composed table differs:\n%s\n---\n%s", out.String(), want.String())
	}
}

// TestRunJournalRemovedMetaFieldsRefused: a journal whose meta carries a
// field older builds wrote — a forced checkpoint spacing, a memory size or
// an early-stopping CI width — is refused with an error naming the field,
// and keeps its bytes.
func TestRunJournalRemovedMetaFieldsRefused(t *testing.T) {
	swapStderr(t)
	path := filepath.Join(t.TempDir(), "composed.ndjson")
	args := []string{"-bench", "bfs", "-technique", "raw", "-samples", "60", "-compose", "on", "-journal", path}
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"checkpoint_every":100`, `"mem_size":2097152`, `"ci_width":0.02`} {
		old := strings.Replace(string(data), `"meta":{`, `"meta":{`+field+`,`, 1)
		if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		name, _, _ := strings.Cut(field, ":")
		if err := run(append(args, "-resume"), &out); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("resume of a journal whose meta has %s: err = %v, want an error naming the field", field, err)
		}
		if after, _ := os.ReadFile(path); string(after) != old {
			t.Errorf("refused resume (%s) changed the journal", field)
		}
	}
}

// TestRunRejectsBeforeJournal: an invocation with an unknown technique or
// level, or an impossible mode combination (multi-bit faults at IR level
// among them), fails before the journal is opened, leaving an existing
// journal's bytes untouched.
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
		{"-prune", "exact", "-compose", "on"},
		{"-level", "ir", "-technique", "raw", "-bits", "2"},
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
