package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ferrum/internal/fi"
	"ferrum/internal/obs"
)

// writeJournal crafts a two-cell journal: one complete cell with a frozen
// Result (including latency buckets), one partial cell with plan records
// only — the two shapes fistat must render.
func writeJournal(t *testing.T, path string) {
	t.Helper()
	j, err := fi.CreateJournal(path, fi.JournalMeta{Tool: "test", Seed: 7, Samples: 4})
	if err != nil {
		t.Fatal(err)
	}
	j.Plan("bfs/ferrum/asm", 0, fi.PlanRecord{Outcome: fi.Detected, Site: 10, Lat: 8, HasLat: true})
	j.Plan("bfs/ferrum/asm", 1, fi.PlanRecord{Outcome: fi.Benign, Site: 20, Lat: 4000, HasLat: true})
	j.Plan("bfs/ferrum/asm", 2, fi.PlanRecord{Outcome: fi.Detected, Site: 30, Lat: 16, HasLat: true})
	j.Plan("bfs/ferrum/asm", 3, fi.PlanRecord{Outcome: fi.Crash, Site: 40, Lat: 2, HasLat: true})
	var res fi.Result
	res.Samples = 4
	res.Counts[fi.Benign] = 1
	res.Counts[fi.Detected] = 2
	res.Counts[fi.Crash] = 1
	res.Latency.Observe(fi.Detected, 8)
	res.Latency.Observe(fi.Benign, 4000)
	res.Latency.Observe(fi.Detected, 16)
	res.Latency.Observe(fi.Crash, 2)
	res.Latency.Unit = "cycles"
	j.Cell("bfs/ferrum/asm", res)
	j.Plan("bfs/raw/asm", 0, fi.PlanRecord{Outcome: fi.SDC, Site: 11, Lat: 100, HasLat: true})
	j.Plan("bfs/raw/asm", 1, fi.PlanRecord{Outcome: fi.Crash, Site: 12, Lat: 3, HasLat: true})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ndjson")
	writeJournal(t, path)
	var out strings.Builder
	if err := run([]string{"-journal", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, needle := range []string{
		"cells: 1 complete, 1 partial",
		"bfs/ferrum/asm",
		"outcomes: 6 plans across 2 campaigns",
		"detection latency by technique",
		"ferrum     cycles",
		"per-site outcomes",
		"hottest sites",
	} {
		if !strings.Contains(s, needle) {
			t.Errorf("report missing %q:\n%s", needle, s)
		}
	}
	// The partial raw cell's SDC fault must appear in the strip as S.
	if !strings.Contains(s, "S") {
		t.Errorf("site strip missing SDC marker:\n%s", s)
	}
}

func TestReportLatencyMatchesJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ndjson")
	writeJournal(t, path)
	var out strings.Builder
	if err := run([]string{"-journal", path}, &out); err != nil {
		t.Fatal(err)
	}
	// detected: n=2, mean=(8+16)/2=12, p50<=8, p90<=16 on power-of-two buckets.
	if !strings.Contains(out.String(), "detected  2  12    8      16") {
		t.Errorf("detected latency row wrong:\n%s", out.String())
	}
}

func TestReconcile(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "j.ndjson")
	// Reconcile requires a completed run: a single complete cell.
	j, err := fi.CreateJournal(jp, fi.JournalMeta{Tool: "test", Seed: 7, Samples: 3})
	if err != nil {
		t.Fatal(err)
	}
	var res fi.Result
	res.Samples = 3
	res.Counts[fi.Detected] = 2
	res.Counts[fi.Crash] = 1
	res.Latency.Observe(fi.Detected, 5)
	res.Latency.Observe(fi.Detected, 300)
	res.Latency.Observe(fi.Crash, 2)
	res.Latency.Unit = "cycles"
	j.Cell("bfs/ferrum/asm", res)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The scrape a -serve run would answer: the same counters and bucket
	// folds observeOutcomes publishes.
	reg := obs.NewRegistry()
	reg.Counter("fi.campaigns").Add(1)
	reg.Counter("fi.plans").Add(3)
	reg.Counter("fi.outcome.detected").Add(2)
	reg.Counter("fi.outcome.crash").Add(1)
	for _, o := range []fi.Outcome{fi.Detected, fi.Crash} {
		h := res.Latency.Hist(o)
		reg.Histogram("fi.detect_latency.cycles."+o.String(), fi.LatencyBuckets).
			AddBuckets(h.Counts, h.Sum, h.N)
	}
	mp := filepath.Join(dir, "metrics.txt")
	f, err := os.Create(mp)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WritePrometheus(f, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out strings.Builder
	if err := run([]string{"-journal", jp, "-reconcile", mp}, &out); err != nil {
		t.Fatalf("reconcile failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "reconcile: OK") {
		t.Errorf("missing OK line:\n%s", out.String())
	}

	// Tamper with one bucket: reconcile must fail loudly.
	data, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), `fi_detect_latency_cycles_crash_bucket{le="2"} 1`,
		`fi_detect_latency_cycles_crash_bucket{le="2"} 2`, 1)
	if tampered == string(data) {
		t.Fatalf("tamper target not found in scrape:\n%s", data)
	}
	if err := os.WriteFile(mp, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-journal", jp, "-reconcile", mp}, &out); err == nil {
		t.Fatalf("tampered scrape reconciled:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "bucket le=2") {
		t.Errorf("mismatch report missing bucket detail:\n%s", out.String())
	}
}

func TestReconcileRefusesPartial(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "j.ndjson")
	writeJournal(t, jp) // has a partial cell
	mp := filepath.Join(dir, "m.txt")
	if err := os.WriteFile(mp, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-journal", jp, "-reconcile", mp}, &out); err == nil ||
		!strings.Contains(err.Error(), "partial") {
		t.Errorf("partial journal reconciled: %v", err)
	}
}

func TestDiff(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.ndjson"), filepath.Join(dir, "b.ndjson")
	writeJournal(t, a)
	// b: same cells, but raw's SDC became detected (a protection win).
	j, err := fi.CreateJournal(b, fi.JournalMeta{Tool: "test", Seed: 7, Samples: 4})
	if err != nil {
		t.Fatal(err)
	}
	j.Plan("bfs/raw/asm", 0, fi.PlanRecord{Outcome: fi.Detected, Site: 11, Lat: 90, HasLat: true})
	j.Plan("bfs/raw/asm", 1, fi.PlanRecord{Outcome: fi.Crash, Site: 12, Lat: 3, HasLat: true})
	j.Plan("only-in-b", 0, fi.PlanRecord{Outcome: fi.Benign, Site: 1, Lat: 5, HasLat: true})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-diff", a, b}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, needle := range []string{"1→0", "0→1", "(a only)", "(b only)", "Δsdc-rate"} {
		if !strings.Contains(s, needle) {
			t.Errorf("diff missing %q:\n%s", needle, s)
		}
	}
}

// composedResult fabricates a completed compositional cell: three sections,
// the middle one carrying a fallback.
func composedResult(fps [3]string) fi.Result {
	var res fi.Result
	res.Samples = 30
	res.Counts[fi.Benign] = 20
	res.Counts[fi.SDC] = 6
	res.Counts[fi.Crash] = 4
	res.Composed = fi.ComposeSummary{
		Enabled: true, Mode: "on", Interval: 10,
		Composed: 30, Sections: 29, Fallbacks: 1,
		Rows: []fi.SectionRow{
			{Start: 0, End: 10, Fingerprint: fps[0], Plans: 10, Counts: [5]int{8, 1, 0, 1, 0}},
			{Start: 10, End: 20, Fingerprint: fps[1], Plans: 10, Fallbacks: 1, Counts: [5]int{6, 3, 0, 1, 0}},
			{Start: 20, End: 30, Fingerprint: fps[2], Plans: 10, Counts: [5]int{6, 2, 0, 2, 0}},
		},
	}
	return res
}

func writeComposedJournal(t *testing.T, path string, fps [3]string) {
	t.Helper()
	j, err := fi.CreateJournal(path, fi.JournalMeta{Tool: "test", Seed: 3, Samples: 30, Compose: "on"})
	if err != nil {
		t.Fatal(err)
	}
	j.Cell("bfs/raw/asm", composedResult(fps))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestComposeReportAndDiff: the per-section propagation table renders from
// the journaled ComposeSummary, and -diff annotates reused vs re-injected
// sections by fingerprint equality.
func TestComposeReportAndDiff(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.ndjson"), filepath.Join(dir, "b.ndjson")
	writeComposedJournal(t, a, [3]string{"aaaa", "bbbb", "cccc"})
	// b: the edit reached only the middle section.
	writeComposedJournal(t, b, [3]string{"aaaa", "beef", "cccc"})

	var out strings.Builder
	if err := run([]string{"-journal", a}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, needle := range []string{
		"compose (on) bfs/raw/asm: 3 sections at K=10; 29 boundary-classified + 1 fallbacks = 30 plans",
		"fingerprint",
		"10-20",
		"bbbb",
	} {
		if !strings.Contains(s, needle) {
			t.Errorf("compose report missing %q:\n%s", needle, s)
		}
	}

	out.Reset()
	if err := run([]string{"-diff", a, b}, &out); err != nil {
		t.Fatal(err)
	}
	s = out.String()
	for _, needle := range []string{
		"compose sections",
		"bfs/raw/asm: 2/3 sections reused",
		"[=#=]",
		"20 plans servable", // sections 0 and 2: 10 plans each, no fallbacks
	} {
		if !strings.Contains(s, needle) {
			t.Errorf("compose diff missing %q:\n%s", needle, s)
		}
	}
}

func TestWaterfall(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "j.ndjson")
	writeJournal(t, jp)
	ev := filepath.Join(dir, "ev.ndjson")
	lines := []string{
		`{"type":"meta","tool":"fidi","argv":[]}`,
		`{"type":"span","name":"build","cell":"bfs/ferrum","lane":0,"start_us":0,"dur_us":4000}`,
		`{"type":"span","name":"campaign","cell":"bfs/ferrum","lane":0,"start_us":4000,"dur_us":9000}`,
		`{"type":"span","name":"render","lane":0,"start_us":13000,"dur_us":500}`,
	}
	if err := os.WriteFile(ev, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-journal", jp, "-events", ev}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "span waterfall (2 cells over 13.5 ms") {
		t.Errorf("waterfall header wrong:\n%s", s)
	}
	if !strings.Contains(s, "bfs/ferrum") || !strings.Contains(s, "(main)") {
		t.Errorf("waterfall rows missing:\n%s", s)
	}
}

func TestErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Error("no -journal accepted")
	}
	if err := run([]string{"-journal", "/nonexistent"}, &out); err == nil {
		t.Error("missing journal accepted")
	}
	if err := run([]string{"-diff", "only-one.ndjson"}, &out); err == nil {
		t.Error("-diff with one path accepted")
	}
	dir := t.TempDir()
	jp := filepath.Join(dir, "j.ndjson")
	writeJournal(t, jp)
	if err := run([]string{"-journal", jp, "-events", "/nonexistent"}, &out); err == nil {
		t.Error("missing events file accepted")
	}
	if err := run([]string{"-journal", jp, "-reconcile", "/nonexistent"}, &out); err == nil {
		t.Error("missing metrics file accepted")
	}
}
