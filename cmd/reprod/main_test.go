package main

import (
	"strings"
	"testing"
)

func TestRunTables(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "table1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table I") || !strings.Contains(out.String(), "ferrum") {
		t.Errorf("table1 output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-exp", "table2", "-bench", "bfs"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "bfs") {
		t.Errorf("table2 output:\n%s", out.String())
	}
}

func TestRunSmallCampaigns(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "fig11", "-bench", "bfs"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig. 11") {
		t.Errorf("fig11 output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-exp", "fig10", "-bench", "bfs", "-samples", "60"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig. 10") {
		t.Errorf("fig10 output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-exp", "profile", "-bench", "bfs"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Dynamic attribution") {
		t.Errorf("profile output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-exp", "exectime", "-bench", "bfs"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "IV-B3") {
		t.Errorf("exectime output:\n%s", out.String())
	}
}

// captureStderr swaps the package stderr writer for a buffer for one test.
func captureStderr(t *testing.T) *strings.Builder {
	t.Helper()
	old := errw
	var buf strings.Builder
	errw = &buf
	t.Cleanup(func() { errw = old })
	return &buf
}

func TestProgressAndSummary(t *testing.T) {
	stderr := captureStderr(t)
	var out strings.Builder
	if err := run([]string{"-exp", "fig10", "-bench", "bfs", "-samples", "60", "-progress", "-cell-workers", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	got := stderr.String()
	for _, needle := range []string{"[fig10] bfs/raw", "done in", "inj/s", "suite:", "builds: 4 unique", "cache hits"} {
		if !strings.Contains(got, needle) {
			t.Errorf("stderr missing %q:\n%s", needle, got)
		}
	}
	if strings.Contains(out.String(), "suite:") {
		t.Error("suite summary leaked into stdout (must not perturb table output)")
	}
}

func TestSummaryWithoutProgress(t *testing.T) {
	stderr := captureStderr(t)
	var out strings.Builder
	if err := run([]string{"-exp", "fig11", "-bench", "bfs"}, &out); err != nil {
		t.Fatal(err)
	}
	got := stderr.String()
	if strings.Contains(got, "[fig11]") {
		t.Errorf("per-cell progress printed without -progress:\n%s", got)
	}
	if !strings.Contains(got, "suite:") || !strings.Contains(got, "goldens: 4 unique") {
		t.Errorf("suite summary missing or wrong:\n%s", got)
	}
}

// TestSeedZeroDistinct: -seed 0 must run seed 0, not silently fall back to
// the default seed (the footgun this release fixed).
func TestSeedZeroDistinct(t *testing.T) {
	captureStderr(t)
	var zero, def strings.Builder
	if err := run([]string{"-exp", "fig11", "-bench", "bfs", "-seed", "0"}, &zero); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "fig11", "-bench", "bfs"}, &def); err != nil {
		t.Fatal(err)
	}
	if zero.String() == def.String() {
		t.Error("-seed 0 produced the default-seed table; zero is not being honoured")
	}
}

// TestCellWorkersIdenticalOutput is the CLI-level determinism guarantee:
// any -cell-workers value yields byte-identical stdout.
func TestCellWorkersIdenticalOutput(t *testing.T) {
	captureStderr(t)
	var w1, w8 strings.Builder
	if err := run([]string{"-exp", "fig10", "-bench", "bfs,knn", "-samples", "60", "-cell-workers", "1"}, &w1); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "fig10", "-bench", "bfs,knn", "-samples", "60", "-cell-workers", "8"}, &w8); err != nil {
		t.Fatal(err)
	}
	if w1.String() != w8.String() {
		t.Errorf("outputs differ:\n%s\n---\n%s", w1.String(), w8.String())
	}
}

// TestNoCheckpointIdenticalOutput is the CLI-level equivalence guarantee:
// checkpointed fast-forwarding must not change a single stdout byte.
func TestNoCheckpointIdenticalOutput(t *testing.T) {
	stderr := captureStderr(t)
	var ck, direct strings.Builder
	if err := run([]string{"-exp", "fig10", "-bench", "bfs,knn", "-samples", "60"}, &ck); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "checkpointing:") {
		t.Errorf("stderr summary missing checkpointing counters:\n%s", stderr.String())
	}
	if err := run([]string{"-exp", "fig10", "-bench", "bfs,knn", "-samples", "60", "-no-checkpoint"}, &direct); err != nil {
		t.Fatal(err)
	}
	if ck.String() != direct.String() {
		t.Errorf("outputs differ:\n%s\n---\n%s", ck.String(), direct.String())
	}
	if strings.Contains(ck.String(), "checkpointing:") {
		t.Error("checkpointing counters leaked into stdout")
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "bogus"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-exp", "fig11", "-bench", "nope"}, &out); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run([]string{"-notaflag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}
