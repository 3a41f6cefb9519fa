package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJournalResumeIdenticalOutput drives the crash-resume workflow end to
// end through the CLI: a journaled fig10 run, a simulated kill (the journal
// truncated mid-record), and a -resume run whose stdout is byte-identical
// to an uninterrupted invocation.
func TestJournalResumeIdenticalOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.ndjson")
	args := []string{"-exp", "fig10", "-bench", "bfs", "-samples", "60"}

	var want strings.Builder
	if err := run(args, &want); err != nil {
		t.Fatal(err)
	}

	var out1 strings.Builder
	if err := run(append(args, "-journal", path), &out1); err != nil {
		t.Fatal(err)
	}
	if out1.String() != want.String() {
		t.Error("journaled run's stdout differs from the baseline")
	}

	// Simulate the kill: chop the journal to two thirds, usually mid-record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	stderr := captureStderr(t)
	var out2 strings.Builder
	if err := run(append(args, "-journal", path, "-resume"), &out2); err != nil {
		t.Fatal(err)
	}
	if out2.String() != want.String() {
		t.Errorf("resumed stdout is not byte-identical:\n%s\n---\n%s", out2.String(), want.String())
	}
	if !strings.Contains(stderr.String(), "journal: resuming") {
		t.Errorf("stderr missing resume notice:\n%s", stderr.String())
	}

	// A second resume finds every cell complete and still renders the same
	// bytes without re-running campaigns.
	var out3 strings.Builder
	if err := run(append(args, "-journal", path, "-resume"), &out3); err != nil {
		t.Fatal(err)
	}
	if out3.String() != want.String() {
		t.Error("fully journaled resume's stdout is not byte-identical")
	}
}

// TestJournalResumeGuards: -resume needs -journal, and a journal recorded
// under different campaign-shaping flags is refused.
func TestJournalResumeGuards(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "table1", "-resume"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-resume requires -journal") {
		t.Errorf("-resume without -journal: err = %v", err)
	}

	path := filepath.Join(t.TempDir(), "suite.ndjson")
	if err := run([]string{"-exp", "fig11", "-bench", "bfs", "-samples", "50", "-journal", path}, &out); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-exp", "fig11", "-bench", "bfs", "-samples", "51", "-journal", path, "-resume"}, &out)
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Errorf("mismatched -samples resume: err = %v", err)
	}
}

// TestJournalComposedResume: a composed journal cut mid-suite resumes at
// the K each campaign derives again, and renders the uninterrupted tables
// byte for byte.
func TestJournalComposedResume(t *testing.T) {
	captureStderr(t)
	path := filepath.Join(t.TempDir(), "composed.ndjson")
	args := []string{"-exp", "fig10", "-bench", "bfs", "-samples", "60", "-compose", "on", "-journal", path}
	var want strings.Builder
	if err := run(args, &want); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(append(args, "-resume"), &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != want.String() {
		t.Errorf("resumed composed tables differ:\n%s\n---\n%s", out.String(), want.String())
	}
}

// TestJournalRemovedMetaFieldsRefused: a journal whose meta carries a
// field older builds wrote — a forced checkpoint spacing, a memory size or
// an early-stopping CI width — is refused with an error naming the field,
// and keeps its bytes.
func TestJournalRemovedMetaFieldsRefused(t *testing.T) {
	captureStderr(t)
	path := filepath.Join(t.TempDir(), "composed.ndjson")
	args := []string{"-exp", "fig10", "-bench", "bfs", "-samples", "40", "-compose", "on", "-journal", path}
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

// TestJournalUntouchedByBadExperiment: an unknown experiment is rejected
// before the journal is opened, so an existing journal keeps its bytes.
func TestJournalUntouchedByBadExperiment(t *testing.T) {
	captureStderr(t)
	path := filepath.Join(t.TempDir(), "suite.ndjson")
	var out strings.Builder
	if err := run([]string{"-exp", "fig10", "-bench", "bfs", "-samples", "40", "-journal", path}, &out); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "bogus", "-journal", path}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
	if after, _ := os.ReadFile(path); string(after) != string(before) {
		t.Error("an unknown experiment changed the existing journal")
	}
}
