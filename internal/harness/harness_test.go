package harness

import (
	"strings"
	"testing"

	"ferrum/internal/asm"
	"ferrum/internal/machine"
	"ferrum/internal/rodinia"
)

// Small, fast options for tests; the full 1000-sample campaigns run in
// cmd/reprod and the benchmark harness.
func testOpts(benchmarks ...string) Options {
	return Options{Samples: 120, Seed: 99, Benchmarks: benchmarks}
}

// buildGolden decodes a build outside any cache and returns its golden run
// on the instance at the default memory size.
func buildGolden(inst *rodinia.Instance, build *Build) (machine.Result, error) {
	dec, err := machine.Decode(build.Prog)
	if err != nil {
		return machine.Result{}, err
	}
	return runGolden(nil, inst, dec, defaultMemSize, false)
}

func TestBuildTechniqueAll(t *testing.T) {
	opts := testOpts("bfs").withDefaults()
	insts, err := opts.instances()
	if err != nil {
		t.Fatal(err)
	}
	inst := insts[0]
	for _, tech := range append([]Technique{Raw}, Techniques...) {
		build, err := BuildTechnique(inst.Mod, tech)
		if err != nil {
			t.Fatalf("%s: %v", tech, err)
		}
		if build.Prog == nil {
			t.Fatalf("%s: nil program", tech)
		}
		g, err := buildGolden(inst, build)
		if err != nil {
			t.Fatalf("%s: %v", tech, err)
		}
		if g.Cycles <= 0 || len(g.Output) == 0 {
			t.Errorf("%s: golden = %+v", tech, g)
		}
	}
	if _, err := BuildTechnique(inst.Mod, Technique("bogus")); err == nil {
		t.Error("bogus technique accepted")
	}
}

// TestMemSizeReachesGoldenRuns: Options.MemSize sizes every machine an
// experiment builds, golden and profile runs included. With a memory too
// small for the benchmark's data, Fig11, Profile and Variation fail the
// same way Fig10 does, instead of silently running at the default size.
func TestMemSizeReachesGoldenRuns(t *testing.T) {
	opts := testOpts("bfs")
	opts.MemSize = 2 * machine.GuardSize
	for name, run := range map[string]func() error{
		"fig10":     func() error { _, err := Fig10(opts); return err },
		"fig11":     func() error { _, err := Fig11(opts); return err },
		"profile":   func() error { _, err := Profile(opts); return err },
		"variation": func() error { _, err := Variation(opts, 1); return err },
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), "machine: image write") {
			t.Errorf("%s at MemSize %d: err = %v, want an out-of-range image write", name, opts.MemSize, err)
		}
	}
}

func TestProtectedOutputsMatchRaw(t *testing.T) {
	opts := testOpts("pathfinder", "lud").withDefaults()
	insts, err := opts.instances()
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range insts {
		rawBuild, err := BuildTechnique(inst.Mod, Raw)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := buildGolden(inst, rawBuild)
		if err != nil {
			t.Fatal(err)
		}
		for _, tech := range Techniques {
			build, err := BuildTechnique(inst.Mod, tech)
			if err != nil {
				t.Fatalf("%s/%s: %v", inst.Bench.Name, tech, err)
			}
			g, err := buildGolden(inst, build)
			if err != nil {
				t.Fatalf("%s/%s: %v", inst.Bench.Name, tech, err)
			}
			if len(g.Output) != len(raw.Output) {
				t.Fatalf("%s/%s: output length %d vs %d", inst.Bench.Name, tech, len(g.Output), len(raw.Output))
			}
			for i := range g.Output {
				if g.Output[i] != raw.Output[i] {
					t.Errorf("%s/%s: output[%d] = %d, want %d",
						inst.Bench.Name, tech, i, g.Output[i], raw.Output[i])
				}
			}
			if g.Cycles <= raw.Cycles {
				t.Errorf("%s/%s: protection has no cost (%v <= %v)",
					inst.Bench.Name, tech, g.Cycles, raw.Cycles)
			}
		}
	}
}

func TestFig10SmallCampaign(t *testing.T) {
	rows, err := Fig10(testOpts("bfs", "kmeans"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.RawSDCRate <= 0 {
			t.Errorf("%s: raw SDC rate = %v, expected positive", r.Benchmark, r.RawSDCRate)
		}
		// The paper's headline: FERRUM and Hybrid reach full coverage,
		// IR-level EDDI does not always.
		if got := r.Coverage[Ferrum]; got != 1 {
			t.Errorf("%s: FERRUM coverage = %v, want 1", r.Benchmark, got)
		}
		if got := r.Coverage[Hybrid]; got != 1 {
			t.Errorf("%s: Hybrid coverage = %v, want 1", r.Benchmark, got)
		}
		if got := r.Coverage[IREDDI]; got < 0 || got > 1 {
			t.Errorf("%s: IR-EDDI coverage out of range: %v", r.Benchmark, got)
		}
	}
	text := RenderFig10(rows)
	for _, needle := range []string{"Fig. 10", "bfs", "kmeans", "ferrum", "averages"} {
		if !strings.Contains(text, needle) {
			t.Errorf("render missing %q:\n%s", needle, text)
		}
	}
}

func TestFig11Overheads(t *testing.T) {
	rows, err := Fig11(testOpts("bfs", "pathfinder", "knn"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for _, tech := range Techniques {
			if r.Overhead[tech] <= 0 {
				t.Errorf("%s/%s: overhead = %v", r.Benchmark, tech, r.Overhead[tech])
			}
		}
		// The paper's ordering: FERRUM cheapest, Hybrid most expensive.
		if !(r.Overhead[Ferrum] < r.Overhead[IREDDI]) {
			t.Errorf("%s: FERRUM (%v) not cheaper than IR-EDDI (%v)",
				r.Benchmark, r.Overhead[Ferrum], r.Overhead[IREDDI])
		}
		if !(r.Overhead[IREDDI] < r.Overhead[Hybrid]) {
			t.Errorf("%s: IR-EDDI (%v) not cheaper than Hybrid (%v)",
				r.Benchmark, r.Overhead[IREDDI], r.Overhead[Hybrid])
		}
	}
	text := RenderFig11(rows)
	if !strings.Contains(text, "Fig. 11") || !strings.Contains(text, "averages") {
		t.Errorf("render broken:\n%s", text)
	}
}

func TestExecTime(t *testing.T) {
	rows, err := ExecTime(testOpts("bfs", "particlefilter"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var bfs, pf ExecTimeRow
	for _, r := range rows {
		switch r.Benchmark {
		case "bfs":
			bfs = r
		case "particlefilter":
			pf = r
		}
		if r.Duration <= 0 || r.StaticInsts <= 0 {
			t.Errorf("%+v", r)
		}
	}
	// §IV-B3: transform time scales with static instructions; the
	// particlefilter is the largest program.
	if pf.StaticInsts <= bfs.StaticInsts {
		t.Errorf("particlefilter (%d) should exceed bfs (%d)", pf.StaticInsts, bfs.StaticInsts)
	}
	text := RenderExecTime(rows)
	if !strings.Contains(text, "IV-B3") || !strings.Contains(text, "average") {
		t.Errorf("render broken:\n%s", text)
	}
}

func TestGapExperiment(t *testing.T) {
	rows, err := Gap(Options{Samples: 400, Seed: 5, Benchmarks: []string{"knn"}})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// Anticipated coverage at IR level must be (near) perfect; measured
	// coverage at assembly level lower — the paper's 28% gap finding.
	if r.Anticipated < 0.95 {
		t.Errorf("anticipated coverage = %v, want >= 0.95", r.Anticipated)
	}
	if r.Gap <= 0 {
		t.Errorf("gap = %v, want positive", r.Gap)
	}
	text := RenderGap(rows)
	if !strings.Contains(text, "knn") || !strings.Contains(text, "average gap") {
		t.Errorf("render broken:\n%s", text)
	}
}

func TestTable1Static(t *testing.T) {
	m := Table1()
	if m[Ferrum][ClassComparison] != LevelAS2 {
		t.Error("FERRUM must cover comparisons at AS2")
	}
	if m[Hybrid][ClassBranch] != LevelIR || m[Hybrid][ClassComparison] != LevelIR {
		t.Error("Hybrid must cover branch/comparison at IR")
	}
	if m[IREDDI][ClassStore] != LevelNone {
		t.Error("IR-EDDI must not cover stores")
	}
	for _, tech := range Techniques {
		for _, c := range InstClasses {
			if m[tech][c] == "" {
				t.Errorf("missing cell %s/%s", tech, c)
			}
		}
	}
	if !strings.Contains(RenderTable1(), "Table I") {
		t.Error("render broken")
	}
}

func TestTable2(t *testing.T) {
	rows, err := Table2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Suite != "Rodinia" || r.Domain == "" || r.StaticInsts <= 0 || r.IRInsts <= 0 {
			t.Errorf("bad row %+v", r)
		}
	}
	text := RenderTable2(rows)
	if !strings.Contains(text, "Table II") || !strings.Contains(text, "particlefilter") {
		t.Errorf("render broken:\n%s", text)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Fig11(Options{Benchmarks: []string{"nope"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	o := Options{}.withDefaults()
	if o.Samples != 1000 || o.Scale != 1 || len(o.Benchmarks) != 8 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestProfileExperiment(t *testing.T) {
	rows, err := Profile(testOpts("bfs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // raw + 3 techniques
		t.Fatalf("rows = %d", len(rows))
	}
	byTech := map[Technique]ProfileRow{}
	for _, r := range rows {
		byTech[r.Technique] = r
	}
	// Raw is all program code except the two _start runtime instructions.
	if f := byTech[Raw].Fractions[asm.TagProgram]; f < 0.999 {
		t.Errorf("raw program fraction = %v, want ~1", f)
	}
	for _, tech := range Techniques {
		r := byTech[tech]
		if r.Fractions[asm.TagDup] <= 0 {
			t.Errorf("%s: no duplicate instructions attributed", tech)
		}
		if r.Fractions[asm.TagProgram] >= 1 {
			t.Errorf("%s: program fraction = %v", tech, r.Fractions[asm.TagProgram])
		}
	}
	// FERRUM stages results into SIMD registers; the hybrid does not.
	if byTech[Ferrum].Fractions[asm.TagStage] <= 0 {
		t.Error("FERRUM shows no staging instructions")
	}
	if byTech[Hybrid].Fractions[asm.TagStage] != 0 {
		t.Error("hybrid shows staging instructions")
	}
	text := RenderProfile(rows)
	if !strings.Contains(text, "Dynamic attribution") || !strings.Contains(text, "bfs") {
		t.Errorf("render broken:\n%s", text)
	}
}

// TestProfileRowInvariants pins the contents of every Profile row: the tag
// fractions partition the dynamic instruction count (sum to 1), protection
// always costs instructions over raw, and FERRUM is the only technique
// issuing vector work.
func TestProfileRowInvariants(t *testing.T) {
	rows, err := Profile(testOpts("bfs"))
	if err != nil {
		t.Fatal(err)
	}
	byTech := map[Technique]ProfileRow{}
	for _, r := range rows {
		if r.Benchmark != "bfs" {
			t.Errorf("row benchmark = %q", r.Benchmark)
		}
		if r.DynInsts == 0 {
			t.Errorf("%s: zero dynamic instructions", r.Technique)
		}
		var sum float64
		for tag, f := range r.Fractions {
			if f < 0 || f > 1 {
				t.Errorf("%s: fraction[%v] = %v out of [0,1]", r.Technique, tag, f)
			}
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: fractions sum to %v, want 1", r.Technique, sum)
		}
		byTech[r.Technique] = r
	}
	raw := byTech[Raw]
	for _, tech := range Techniques {
		if byTech[tech].DynInsts <= raw.DynInsts {
			t.Errorf("%s: %d dyn insts, not above raw's %d",
				tech, byTech[tech].DynInsts, raw.DynInsts)
		}
	}
	var ferrumVector float64
	for _, v := range byTech[Ferrum].VectorWork {
		ferrumVector += v
	}
	if ferrumVector <= 0 {
		t.Error("FERRUM issued no vector work")
	}
	var hybridVector float64
	for _, v := range byTech[Hybrid].VectorWork {
		hybridVector += v
	}
	if hybridVector != 0 {
		t.Errorf("hybrid issued vector work %v; scalar-only technique", hybridVector)
	}
}

func TestVariationExperiment(t *testing.T) {
	rows, err := Variation(testOpts("bfs"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // one per technique
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Mean <= 0 || r.Min > r.Mean || r.Max < r.Mean || r.StdDev < 0 {
			t.Errorf("implausible row %+v", r)
		}
		if r.Seeds != 3 {
			t.Errorf("seeds = %d", r.Seeds)
		}
	}
	text := RenderVariation(rows)
	if !strings.Contains(text, "variation") || !strings.Contains(text, "bfs") {
		t.Errorf("render broken:\n%s", text)
	}
	// Guard against degenerate seed handling.
	if _, err := Variation(testOpts("bfs"), 0); err != nil {
		t.Errorf("default seeds failed: %v", err)
	}
}
