package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ferrum/internal/fi"
	"ferrum/internal/obs"
)

func TestRunList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bfs", "particlefilter", "kmeans"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("list missing %s", name)
		}
	}
}

func TestRunBenchmarkCampaign(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-bench", "bfs", "-technique", "ferrum", "-samples", "80"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "SDC rate: 0.000") {
		t.Errorf("ferrum should show zero SDC rate:\n%s", s)
	}
	if !strings.Contains(s, "detected") {
		t.Errorf("output missing outcome table:\n%s", s)
	}
}

func TestRunRawWithTrace(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-bench", "bfs", "-technique", "raw", "-samples", "120", "-trace", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "example") || !strings.Contains(out.String(), "last 4 instructions") {
		t.Errorf("trace output missing:\n%s", out.String())
	}
}

// TestRunNoCheckpointIdentical pins the -no-checkpoint escape hatch:
// stdout must be byte-identical with checkpointing on and off.
func TestRunNoCheckpointIdentical(t *testing.T) {
	var ck, direct strings.Builder
	args := []string{"-bench", "bfs", "-technique", "raw", "-samples", "80"}
	if err := run(args, &ck); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-no-checkpoint"), &direct); err != nil {
		t.Fatal(err)
	}
	if ck.String() != direct.String() {
		t.Errorf("outputs differ:\n%s\n---\n%s", ck.String(), direct.String())
	}
}

func TestRunIRLevel(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-bench", "knn", "-technique", "ir-level-eddi", "-level", "ir", "-samples", "60"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "level: ir") {
		t.Errorf("output:\n%s", out.String())
	}
	// Assembly-only techniques are rejected at IR level.
	if err := run([]string{"-bench", "knn", "-technique", "ferrum", "-level", "ir"}, &out); err == nil {
		t.Error("ferrum accepted at IR level")
	}
}

func TestRunFileInput(t *testing.T) {
	p := filepath.Join(t.TempDir(), "prog.ll")
	src := `
func @main(%n) {
entry:
  %d = mul %n, 3
  out %d
  ret %d
}
`
	if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-in", p, "-args", "7", "-technique", "raw", "-samples", "50"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "samples: 50") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunMultiBit(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-bench", "lud", "-technique", "ferrum", "-samples", "60", "-bits", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "SDC rate: 0.000") {
		t.Errorf("multi-bit ferrum run:\n%s", out.String())
	}
}

// TestRunProgressAndSinks: -progress streams throttled counts to stderr,
// -events-out yields a parseable NDJSON stream whose final metrics record
// reconciles with the printed outcome table, and -trace-out is valid JSON.
func TestRunProgressAndSinks(t *testing.T) {
	old := errw
	var stderr strings.Builder
	errw = &stderr
	t.Cleanup(func() { errw = old })

	dir := t.TempDir()
	events := filepath.Join(dir, "e.ndjson")
	trace := filepath.Join(dir, "t.json")
	var out strings.Builder
	err := run([]string{"-bench", "bfs", "-technique", "raw", "-samples", "80",
		"-progress", "-events-out", events, "-trace-out", trace}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "injected ") ||
		!strings.Contains(stderr.String(), "/80") {
		t.Errorf("stderr missing throttled progress:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "checkpointing: K=") {
		t.Errorf("stderr missing checkpoint summary:\n%s", stderr.String())
	}
	if strings.Contains(out.String(), "injected ") {
		t.Error("progress leaked into stdout")
	}

	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	var sawMeta, sawInject, sawMetrics bool
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch rec["type"] {
		case "meta":
			sawMeta = true
		case "span":
			if rec["name"] == "inject" {
				sawInject = true
			}
		case "metrics":
			sawMetrics = true
			counters := rec["counters"].(map[string]any)
			if counters["fi.plans"].(float64) != 80 {
				t.Errorf("metrics fi.plans = %v, want 80", counters["fi.plans"])
			}
		}
	}
	if !sawMeta || !sawInject || !sawMetrics {
		t.Errorf("NDJSON stream missing records: meta=%v inject=%v metrics=%v",
			sawMeta, sawInject, sawMetrics)
	}

	tdata, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(tdata, &tf); err != nil {
		t.Fatalf("trace-out is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Error("trace-out has no events")
	}
}

// syncBuf is a concurrency-safe stderr stand-in: TestRunServeScrape reads
// it while run() is still writing.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunServeScrape: the -serve endpoint answers a live /metrics scrape
// whose counters and detection-latency histograms reconcile exactly with
// the campaign the process just ran, and -serve-drain holds the process
// until that post-completion scrape lands.
func TestRunServeScrape(t *testing.T) {
	old := errw
	stderr := &syncBuf{}
	errw = stderr
	t.Cleanup(func() { errw = old })

	journal := filepath.Join(t.TempDir(), "j.ndjson")
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run([]string{"-bench", "bfs", "-technique", "ferrum", "-samples", "100",
			"-journal", journal, "-serve", "127.0.0.1:0", "-serve-drain", "30s"}, &out)
	}()

	// The listen address is announced on stderr ("serving http://ADDR (...").
	var addr string
	for i := 0; i < 500 && addr == ""; i++ {
		if m := regexp.MustCompile(`serving http://(\S+) `).FindStringSubmatch(stderr.String()); m != nil {
			addr = m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if addr == "" {
		t.Fatalf("serve address never announced:\n%s", stderr.String())
	}

	// Poll /metrics until the campaign's counters land (they publish once,
	// at campaign end); early scrapes must not end the drain window.
	var snap obs.Snapshot
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		snap, err = obs.ParsePrometheus(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		// Keep scraping until the process exits: the drain window only ends
		// on a scrape that arrives after the run froze its counters.
		if snap.Counters["fi_plans"] == 100 {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(100 * time.Millisecond):
				continue
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fi_plans never reached 100: %v", snap.Counters)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if snap.Counters["fi_campaigns"] != 1 {
		t.Errorf("fi_campaigns = %d, want 1", snap.Counters["fi_campaigns"])
	}
	// Latency histograms from the scrape must reconcile with the journal's
	// frozen cell record, bucket for bucket.
	st, err := fi.LoadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	res := st.Cell("bfs/ferrum/asm").Result
	if res == nil {
		t.Fatal("journal has no complete cell record")
	}
	var totalLat int64
	for _, o := range []fi.Outcome{fi.Benign, fi.SDC, fi.Detected, fi.Crash, fi.Hang} {
		jh := res.Latency.Hist(o)
		sh := snap.Hists["fi_detect_latency_cycles_"+o.String()]
		if sh.Count != jh.N {
			t.Errorf("latency %s: scrape %d samples, journal %d", o, sh.Count, jh.N)
		}
		for b, c := range jh.Counts {
			if b < len(sh.Counts) && sh.Counts[b] != c {
				t.Errorf("latency %s bucket %d: scrape %d, journal %d", o, b, sh.Counts[b], c)
			}
		}
		if int64(res.Counts[o]) != 0 && o != fi.Benign && jh.N == 0 {
			t.Errorf("outcome %s has %d faults but no latency samples", o, res.Counts[o])
		}
		totalLat += jh.N
	}
	if totalLat == 0 {
		t.Error("no latency samples recorded at all")
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{}, &out); err == nil {
		t.Error("missing -bench/-in accepted")
	}
	if err := run([]string{"-bench", "nope"}, &out); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run([]string{"-in", "/nonexistent"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	p := filepath.Join(t.TempDir(), "prog.ll")
	if err := os.WriteFile(p, []byte("func @main() {\nentry:\n  ret\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", p, "-args", "zzz"}, &out); err == nil {
		t.Error("bad args accepted")
	}
	// A failing campaign (here its golden run divides by zero) fails the
	// invocation at both levels.
	crash := filepath.Join(t.TempDir(), "crash.ll")
	if err := os.WriteFile(crash, []byte("func @main(%n) {\nentry:\n  %d = sdiv 7, %n\n  out %d\n  ret %d\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, level := range []string{"asm", "ir"} {
		err := run([]string{"-in", crash, "-args", "0", "-technique", "raw", "-level", level, "-samples", "10"}, &out)
		if err == nil || !strings.Contains(err.Error(), "golden") {
			t.Errorf("level %s: crashing golden run: err = %v", level, err)
		}
	}
}
