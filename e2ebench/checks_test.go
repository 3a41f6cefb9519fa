package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"ferrum/internal/fi"
	"ferrum/internal/harness"
	"ferrum/internal/obs"
)

// cleanResult is a plausible protected-cell Result that passes every check.
func cleanResult(samples int) fi.Result {
	var res fi.Result
	res.Samples = samples
	res.Counts[fi.Benign] = samples / 2
	res.Counts[fi.Detected] = samples - samples/2
	return res
}

func TestCheckerCountsCorruptedResults(t *testing.T) {
	const n = 1000
	ledgerOff := cleanResult(n)
	ledgerOff.Counts[fi.Benign]--

	tooManySDCs := cleanResult(n)
	tooManySDCs.Counts[fi.Detected] -= allowedSDCs(n) + 1
	tooManySDCs.Counts[fi.SDC] = allowedSDCs(n) + 1

	composedOff := cleanResult(n)
	composedOff.Composed = fi.ComposeSummary{Enabled: true, Composed: n, Sections: n - 10, Fallbacks: 9}

	cases := []struct {
		name string
		tech harness.Technique
		res  fi.Result
		fail bool
	}{
		{"clean ferrum cell", harness.Ferrum, cleanResult(n), false},
		{"ledger off by one", harness.Ferrum, ledgerOff, true},
		{"ferrum SDCs past the allowance", harness.Ferrum, tooManySDCs, true},
		{"hybrid SDCs past the allowance", harness.Hybrid, tooManySDCs, true},
		{"raw cell with SDCs", harness.Raw, tooManySDCs, false},
		{"composed ledger off by one", harness.Raw, composedOff, true},
	}
	chk := &checker{}
	want := 0
	for _, c := range cases {
		before := chk.failed
		chk.unit(checkResult(c.name, c.tech, c.res, n))
		if got := chk.failed > before; got != c.fail {
			t.Errorf("%s: counted failed = %v, want %v", c.name, got, c.fail)
		}
		if c.fail {
			want++
		}
	}
	if chk.attempted != len(cases) || chk.failed != want {
		t.Errorf("checker tallied %d/%d, want %d/%d", chk.failed, chk.attempted, want, len(cases))
	}
}

func TestAllowedSDCsMatchThePapersResolution(t *testing.T) {
	// One SDC per thousand plans, rounded up: a single SDC never fails a
	// cell, two in a 1000-plan cell do.
	for n, want := range map[int]int{100: 1, 1000: 1, 1001: 2, 2000: 2} {
		if got := allowedSDCs(n); got != want {
			t.Errorf("allowedSDCs(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCheckWarm(t *testing.T) {
	cold := cleanResult(300)
	cold.Checkpoint = fi.CheckpointSummary{Enabled: true, Restores: 280, ColdStarts: 20, SkippedInsts: 12345}
	warm := cleanResult(300)
	warm.Checkpoint = fi.CheckpointSummary{Enabled: true}
	if err := checkWarm("cell", cold, warm); err != nil {
		t.Fatalf("equal results: %v", err)
	}
	executed := warm
	executed.Checkpoint.Restores = 1
	if checkWarm("cell", cold, executed) == nil {
		t.Error("a warm re-run that executed a plan passed")
	}
	differs := warm
	differs.Counts[fi.Benign]--
	differs.Counts[fi.Crash]++
	if checkWarm("cell", cold, differs) == nil {
		t.Error("a warm re-run with different counts passed")
	}
}

func TestSelfSharesAddUpToCoveredTime(t *testing.T) {
	t0 := time.Now()
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	span := func(name string, lane int, from, to float64) obs.Span {
		return obs.Span{Name: name, Lane: lane, Start: at(from), Dur: at(to).Sub(at(from))}
	}
	// An experiment call on the main lane schedules two overlapping cells
	// on worker lanes; the first cell spends most of its time injecting.
	spans := []obs.Span{
		span("harness.Fig10", 0, 0, 10),
		span("cell", 1, 1, 5),
		span("cell", 2, 2, 8),
		span("inject", 1, 1, 4),
	}
	parent := spanTree(spans)
	if want := []int{-1, 0, 0, 1}; !slices.Equal(parent, want) {
		t.Fatalf("parents %v, want %v", parent, want)
	}
	got := selfShares(spans, parent)
	want := []float64{3, 0.5, 4.5, 2}
	var sum float64
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("span %d (%s) share %.3f, want %.3f", i, spans[i].Name, got[i], want[i])
		}
		sum += got[i]
	}
	if math.Abs(sum-10) > 1e-9 {
		t.Errorf("shares sum to %.3f, want the 10 s the spans cover", sum)
	}
}

// TestMetricsMatchBenchmarkJSON pins the metric names and units the
// benchmark prints to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	traced := tracedMetrics([]map[string]metric{analyze(obs.New(), time.Second, false, nil)}, []float64{1}, runtimeCost{})
	for _, m := range spec.PerLayer {
		if got, ok := traced[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer %s (%s): printed as %+v, present %v", m.Name, m.Unit, got, ok)
		}
	}
	if len(traced) != len(spec.PerLayer) {
		t.Errorf("traced run prints %d metrics, BENCHMARK.json declares %d", len(traced), len(spec.PerLayer))
	}
	units := map[string]string{"wall_s": "s", "plans_per_s": "plans/s", "setup_s": "s", "peak_rss_mb": "MB"}
	for _, m := range spec.EndToEnd {
		if units[m.Name] != m.Unit {
			t.Errorf("end-to-end %s (%s) is printed with unit %q", m.Name, m.Unit, units[m.Name])
		}
	}
	if len(spec.EndToEnd) != len(units) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the benchmark prints %d", len(spec.EndToEnd), len(units))
	}
}

func TestMergeReplicasScalesEachPassByItsProbes(t *testing.T) {
	ref := refProbeSeconds
	outs := []replicaOut{
		{
			Setups: []hostTimed{{2, ref}, {8, 2 * ref}},
			Passes: []hostTimed{{1, ref}, {6, 2 * ref}, {9, 3 * ref}},
			Plans:  100, PeakRSSMB: 10,
		},
		{
			Setups: []hostTimed{{3, ref}},
			Passes: []hostTimed{{2, ref}, {5, ref}},
			Plans:  100, PeakRSSMB: 12,
		},
	}
	m, err := mergeReplicas(outs)
	if err != nil {
		t.Fatal(err)
	}
	// Scaled passes 1, 3, 3, 2 and 5: the median is 3.
	if got := m["wall_s"].Value; got != 3 {
		t.Errorf("wall_s %v, want 3", got)
	}
	if got := m["plans_per_s"].Value; math.Abs(got-100.0/3) > 1e-9 {
		t.Errorf("plans_per_s %v, want %v", got, 100.0/3)
	}
	// Scaled set-ups 2, 4 and 3.
	if got := m["setup_s"].Value; got != 3 {
		t.Errorf("setup_s %v, want 3", got)
	}
	if got := m["peak_rss_mb"].Value; got != 12 {
		t.Errorf("peak_rss_mb %v, want the larger replica's 12", got)
	}

	outs[1].Plans = 99
	if _, err := mergeReplicas(outs); err == nil {
		t.Error("replicas that resolved different plan counts merged")
	}
}
