package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParse reads canned go test -bench output: the -GOMAXPROCS suffix goes
// (and only a numeric one), ns/op and B/op stay, custom metrics are dropped.
func TestParse(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: ferrum
cpu: Example CPU @ 2.00GHz
BenchmarkMachineRun/bfs/raw-2         	    8210	    121129 ns/op	        55.02 Minsts/s	      6617 dyn-insts
BenchmarkMachineLoad-2                	     500	   1214586 ns/op	 2369504 B/op	      52 allocs/op
BenchmarkIRRun/particlefilter/raw     	    4000	    250041.5 ns/op
BenchmarkCell/hybrid-assembly-level-eddi-16 	      20	   3986571 ns/op	      1297 K
PASS
`
	got := run{}
	cpu, err := parse(out, got)
	if err != nil {
		t.Fatal(err)
	}
	if cpu != "Example CPU @ 2.00GHz" {
		t.Errorf("cpu = %q", cpu)
	}
	want := run{
		{"MachineRun/bfs/raw", "ns/op"}:              121129,
		{"MachineLoad", "ns/op"}:                     1214586,
		{"MachineLoad", "B/op"}:                      2369504,
		{"IRRun/particlefilter/raw", "ns/op"}:        250041.5,
		{"Cell/hybrid-assembly-level-eddi", "ns/op"}: 3986571,
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("parse = %v\nwant    %v", got, want)
	}
	if _, err := parse("BenchmarkX-2 1 12x ns/op\n", run{}); err == nil {
		t.Error("bad ns/op value accepted")
	}
}

// TestVerdict: faster or slower needs at least 9 of 10 pairs and a median
// gap wider than the base IQR; ties count for neither side.
func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100} // IQR 1.5
	shift := func(d float64, same ...int) []float64 {
		c := make([]float64, len(base))
		for i, b := range base {
			c[i] = b + d
		}
		for _, i := range same {
			c[i] = base[i]
		}
		return c
	}
	for _, tc := range []struct {
		name    string
		change  []float64
		wins    int
		verdict string
	}{
		{"all faster", shift(-5), 10, "faster"},
		{"nine faster, one tie", shift(-5, 0), 9, "faster"},
		{"eight faster, two ties", shift(-5, 0, 1), 8, "noise"},
		{"all slower", shift(5), 0, "slower"},
		{"nine slower, one tie", shift(5, 3), 0, "slower"},
		{"all faster within the IQR", shift(-1), 10, "noise"},
		{"identical", shift(0), 0, "noise"},
	} {
		c := compare(base, tc.change)
		if c.Wins != tc.wins || c.Verdict != tc.verdict {
			t.Errorf("%s: wins %d verdict %s, want %d %s", tc.name, c.Wins, c.Verdict, tc.wins, tc.verdict)
		}
	}
	if c := compare(base, shift(-5)); c.Base != 100 || c.BaseIQR != 0.015 || c.Ratio != 0.95 {
		t.Errorf("compare = %+v, want base 100, base_iqr 0.015, ratio 0.95", *c)
	}
}

// canned returns pairs runs parsed from go test -bench lines built from ns,
// benchmark name -> ns/op, identical in every pair.
func canned(t *testing.T, ns map[string]float64) []run {
	t.Helper()
	var b strings.Builder
	for name, v := range ns {
		fmt.Fprintf(&b, "Benchmark%s-2 \t 10 \t %.0f ns/op \t 1000 plans/s\n", name, v)
	}
	runs := make([]run, pairs)
	for i := range runs {
		runs[i] = run{}
		if _, err := parse(b.String(), runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return runs
}

// gateInputs is a change side that passes both gates: compose speedup 50x,
// obs ratio 1.0.
func gateInputs() map[string]float64 {
	return map[string]float64{
		"Compose/full":             500e6,
		"Compose/reuse":            10e6,
		"AsmCampaign/checkpointed": 4e6,
		"ObsOverhead/disabled":     4e6,
	}
}

func writeReport(t *testing.T, base, change []run) (File, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), outFile)
	err := report(File{}, base, change, path, io.Discard)
	var f File
	if b, rerr := os.ReadFile(path); rerr == nil {
		if jerr := json.Unmarshal(b, &f); jerr != nil {
			t.Fatalf("written file: %v", jerr)
		}
	}
	return f, err
}

// TestGates: a compose speedup of 2.9x and an obs ratio of 1.06 each fail
// their gate. report then returns errGate, on which main exits 1, after
// writing the file with the failing gate marked.
func TestGates(t *testing.T) {
	ok := gateInputs()
	if _, err := writeReport(t, canned(t, ok), canned(t, ok)); err != nil {
		t.Fatalf("passing inputs: %v", err)
	}
	for _, tc := range []struct {
		name, bench string
		ns          float64
		gate        int
	}{
		{"compose 2.9x", "Compose/full", 29e6, 0},
		{"obs 1.06", "ObsOverhead/disabled", 4.24e6, 1},
		{"obs 0.94", "ObsOverhead/disabled", 3.76e6, 1},
	} {
		bad := gateInputs()
		bad[tc.bench] = tc.ns
		f, err := writeReport(t, canned(t, ok), canned(t, bad))
		if !errors.Is(err, errGate) {
			t.Errorf("%s: report error %v, want %v", tc.name, err, errGate)
			continue
		}
		if len(f.Gates) != 2 || f.Gates[tc.gate].Pass || !f.Gates[1-tc.gate].Pass {
			t.Errorf("%s: written gates %+v", tc.name, f.Gates)
		}
	}
}

// TestOneSided: a row the base has and the change lacks is an error; a row
// only the change has is reported with no ratio.
func TestOneSided(t *testing.T) {
	withExtra := gateInputs()
	withExtra["MachineRun/bfs/raw"] = 120000

	_, err := writeReport(t, canned(t, withExtra), canned(t, gateInputs()))
	if err == nil || errors.Is(err, errGate) || !strings.Contains(err.Error(), "MachineRun/bfs/raw ns/op: missing on the change side") {
		t.Errorf("row missing on the change side: %v", err)
	}

	f, err := writeReport(t, canned(t, gateInputs()), canned(t, withExtra))
	if err != nil {
		t.Fatalf("row only on the change side: %v", err)
	}
	for _, r := range f.Rows {
		if r.Name != "MachineRun/bfs/raw" {
			if r.Comparison == nil || r.Verdict != "noise" {
				t.Errorf("row %s: %+v, want a noise comparison", r.Name, r)
			}
			continue
		}
		if r.Comparison != nil || r.Change != 120000 {
			t.Errorf("change-only row %+v, want change 120000 and no comparison", r)
		}
	}
	b, _ := json.Marshal(f.Rows)
	if !strings.Contains(string(b), `{"name":"MachineRun/bfs/raw","unit":"ns/op","change_median":120000}`) {
		t.Errorf("change-only row marshals as %s", b)
	}
}
