// Benchmark harness: one benchmark per table/figure of the paper. Each
// reports the paper's metric as a custom unit so `go test -bench=.`
// regenerates the evaluation's rows:
//
//	BenchmarkFig10SDCCoverage   coverage%/<technique> per Rodinia kernel
//	BenchmarkFig11Overhead      overhead%/<technique> per Rodinia kernel
//	BenchmarkExecTime           FERRUM transform time (ns/op) + insts
//	BenchmarkCrossLayerGap      anticipated/measured coverage gap
//	BenchmarkTable2Build        compile cost + static instruction counts
//	BenchmarkAblation*          design-choice ablations from DESIGN.md
package ferrum

import (
	"fmt"
	"testing"

	"ferrum/internal/backend"
	"ferrum/internal/compose"
	"ferrum/internal/ferrumpass"
	"ferrum/internal/fi"
	"ferrum/internal/harness"
	"ferrum/internal/ir"
	"ferrum/internal/machine"
	"ferrum/internal/obs"
	"ferrum/internal/rodinia"
)

// benchSamples keeps `go test -bench=.` runs affordable; cmd/reprod runs
// the paper-scale 1000-sample campaigns.
const benchSamples = 250

func benchOpts(names ...string) harness.Options {
	return harness.Options{Samples: benchSamples, Seed: harness.DefaultSeed, Benchmarks: names}
}

// BenchmarkFig10SDCCoverage regenerates fig. 10 one benchmark at a time,
// reporting SDC coverage per technique as custom metrics.
func BenchmarkFig10SDCCoverage(b *testing.B) {
	for _, bench := range rodinia.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			var rows []harness.Fig10Row
			var err error
			for i := 0; i < b.N; i++ {
				rows, err = harness.Fig10(benchOpts(bench.Name))
				if err != nil {
					b.Fatal(err)
				}
			}
			r := rows[0]
			b.ReportMetric(r.RawSDCRate*100, "rawSDC%")
			b.ReportMetric(r.Coverage[harness.IREDDI]*100, "cov-ireddi%")
			b.ReportMetric(r.Coverage[harness.Hybrid]*100, "cov-hybrid%")
			b.ReportMetric(r.Coverage[harness.Ferrum]*100, "cov-ferrum%")
		})
	}
}

// BenchmarkFig11Overhead regenerates fig. 11, reporting runtime overhead
// per technique.
func BenchmarkFig11Overhead(b *testing.B) {
	for _, bench := range rodinia.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			var rows []harness.Fig11Row
			var err error
			for i := 0; i < b.N; i++ {
				rows, err = harness.Fig11(benchOpts(bench.Name))
				if err != nil {
					b.Fatal(err)
				}
			}
			r := rows[0]
			b.ReportMetric(r.Overhead[harness.IREDDI]*100, "ov-ireddi%")
			b.ReportMetric(r.Overhead[harness.Hybrid]*100, "ov-hybrid%")
			b.ReportMetric(r.Overhead[harness.Ferrum]*100, "ov-ferrum%")
		})
	}
}

// BenchmarkExecTime measures the FERRUM transform itself (§IV-B3): ns/op is
// the paper's "time to execute FERRUM" for each benchmark.
func BenchmarkExecTime(b *testing.B) {
	for _, bench := range rodinia.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			inst, err := bench.Instantiate(1, 1)
			if err != nil {
				b.Fatal(err)
			}
			prog, err := backend.Compile(inst.Mod)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var rep *ferrumpass.Report
			for i := 0; i < b.N; i++ {
				_, rep, err = ferrumpass.Protect(prog, ferrumpass.Config{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.StaticInsts), "static-insts")
		})
	}
}

// BenchmarkCrossLayerGap regenerates the anticipated-vs-measured coverage
// gap for IR-LEVEL-EDDI.
func BenchmarkCrossLayerGap(b *testing.B) {
	for _, name := range []string{"bfs", "knn", "needle", "kmeans"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var rows []harness.GapRow
			var err error
			for i := 0; i < b.N; i++ {
				rows, err = harness.Gap(benchOpts(name))
				if err != nil {
					b.Fatal(err)
				}
			}
			r := rows[0]
			b.ReportMetric(r.Anticipated*100, "anticipated%")
			b.ReportMetric(r.Measured*100, "measured%")
			b.ReportMetric(r.Gap*100, "gap%")
		})
	}
}

// BenchmarkTable2Build measures compilation and reports the static
// instruction counts of Table II.
func BenchmarkTable2Build(b *testing.B) {
	for _, bench := range rodinia.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			inst, err := bench.Instantiate(1, 1)
			if err != nil {
				b.Fatal(err)
			}
			var n int
			for i := 0; i < b.N; i++ {
				prog, err := backend.Compile(inst.Mod)
				if err != nil {
					b.Fatal(err)
				}
				n = prog.StaticInstCount()
			}
			b.ReportMetric(float64(n), "asm-insts")
			b.ReportMetric(float64(inst.Mod.InstCount()), "ir-insts")
		})
	}
}

// BenchmarkTable1Matrix renders the capability matrix (static, but keeps a
// bench target per table as DESIGN.md promises).
func BenchmarkTable1Matrix(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = harness.RenderTable1()
	}
	if len(s) == 0 {
		b.Fatal("empty table")
	}
}

// BenchmarkAblationBatchSize sweeps FERRUM's SIMD batch size, the design
// choice behind fig. 6 (4 results per YMM comparison).
func BenchmarkAblationBatchSize(b *testing.B) {
	inst, err := rodinia.Pathfinder.Instantiate(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := backend.Compile(inst.Mod)
	if err != nil {
		b.Fatal(err)
	}
	raw := goldenCycles(b, prog, inst)
	for _, batch := range []int{1, 2, 3, 4} {
		batch := batch
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			var prot = prog
			for i := 0; i < b.N; i++ {
				p, _, err := ferrumpass.Protect(prog, ferrumpass.Config{BatchSize: batch})
				if err != nil {
					b.Fatal(err)
				}
				prot = p
			}
			b.ReportMetric(fi.Overhead(raw, goldenCycles(b, prot, inst))*100, "overhead%")
		})
	}
}

// BenchmarkAblationNoSIMD compares FERRUM with its SIMD path disabled —
// the gap between fig. 4-only protection and the full design.
func BenchmarkAblationNoSIMD(b *testing.B) {
	inst, err := rodinia.Kmeans.Instantiate(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := backend.Compile(inst.Mod)
	if err != nil {
		b.Fatal(err)
	}
	raw := goldenCycles(b, prog, inst)
	for _, cfg := range []struct {
		name string
		c    ferrumpass.Config
	}{
		{"simd", ferrumpass.Config{}},
		{"nosimd", ferrumpass.Config{DisableSIMD: true}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var prot = prog
			for i := 0; i < b.N; i++ {
				p, _, err := ferrumpass.Protect(prog, cfg.c)
				if err != nil {
					b.Fatal(err)
				}
				prot = p
			}
			b.ReportMetric(fi.Overhead(raw, goldenCycles(b, prot, inst))*100, "overhead%")
		})
	}
}

// BenchmarkMachineExecution measures the simulator's raw interpretation
// speed on the largest benchmark.
func BenchmarkMachineExecution(b *testing.B) {
	inst, err := rodinia.Particlefilter.Instantiate(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := backend.Compile(inst.Mod)
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(prog, harness.MemSize)
	if err != nil {
		b.Fatal(err)
	}
	if err := inst.Setup(m); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var dyn uint64
	for i := 0; i < b.N; i++ {
		res := m.Run(machine.RunOpts{Args: inst.Args})
		if res.Outcome != machine.OutcomeOK {
			b.Fatal(res.Outcome)
		}
		dyn = res.DynInsts
	}
	b.ReportMetric(float64(dyn), "dyn-insts")
}

// benchBuild instantiates bench at scale 1 with the paper's seed and builds
// it under tech: the set-up the engine and campaign benchmarks below share.
// It runs outside the timer.
func benchBuild(b *testing.B, bench *rodinia.Benchmark, tech harness.Technique) (*rodinia.Instance, *harness.Build) {
	b.Helper()
	inst, err := bench.Instantiate(1, harness.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	build, err := harness.BuildTechnique(inst.Mod, tech)
	if err != nil {
		b.Fatal(err)
	}
	return inst, build
}

// bfsAsmTarget is the asm campaign target of bfs built under tech.
func bfsAsmTarget(b *testing.B, tech harness.Technique) fi.AsmTarget {
	b.Helper()
	inst, build := benchBuild(b, rodinia.BFS, tech)
	return fi.AsmTarget{
		Prog:    build.Prog,
		MemSize: harness.MemSize,
		Args:    inst.Args,
		Setup:   func(w fi.MemWriter) error { return inst.Setup(w) },
	}
}

// BenchmarkMachineRun measures one uninstrumented asm-machine execution per
// iteration — the inner-loop cost every campaign and experiment pays per
// plan. BENCH_micro.json tracks its ns/op (scripts/bench).
func BenchmarkMachineRun(b *testing.B) {
	for _, v := range []struct {
		bench *rodinia.Benchmark
		tech  harness.Technique
		name  string
	}{
		{rodinia.BFS, harness.Raw, "bfs/raw"},
		{rodinia.BFS, harness.Ferrum, "bfs/ferrum"},
		{rodinia.Particlefilter, harness.Raw, "particlefilter/raw"},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			inst, build := benchBuild(b, v.bench, v.tech)
			m, err := machine.New(build.Prog, harness.MemSize)
			if err != nil {
				b.Fatal(err)
			}
			if err := inst.Setup(m); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var dyn uint64
			for i := 0; i < b.N; i++ {
				res := m.Run(machine.RunOpts{Args: inst.Args})
				if res.Outcome != machine.OutcomeOK {
					b.Fatalf("%v (%s)", res.Outcome, res.CrashMsg)
				}
				dyn = res.DynInsts
			}
			b.ReportMetric(float64(dyn), "dyn-insts")
			b.ReportMetric(float64(dyn)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minsts/s")
		})
	}
}

// BenchmarkMachineLoad measures one machine's whole life per iteration —
// New, Setup, a golden Run and Release — the fixed cost every golden,
// profile and campaign template pays before its first plan. Run it with
// -benchmem: B/op is what recycling engine memory through Release saves.
func BenchmarkMachineLoad(b *testing.B) {
	inst, build := benchBuild(b, rodinia.BFS, harness.Ferrum)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := machine.New(build.Prog, harness.MemSize)
		if err != nil {
			b.Fatal(err)
		}
		if err := inst.Setup(m); err != nil {
			b.Fatal(err)
		}
		if res := m.Run(machine.RunOpts{Args: inst.Args}); res.Outcome != machine.OutcomeOK {
			b.Fatalf("%v (%s)", res.Outcome, res.CrashMsg)
		}
		m.Release()
	}
}

// BenchmarkIRRun is the IR-interpreter counterpart of BenchmarkMachineRun:
// one interpreted execution per iteration, raw and EDDI-protected.
func BenchmarkIRRun(b *testing.B) {
	for _, v := range []struct {
		bench *rodinia.Benchmark
		tech  harness.Technique
		name  string
	}{
		{rodinia.BFS, harness.Raw, "bfs/raw"},
		{rodinia.BFS, harness.IREDDI, "bfs/eddi"},
		{rodinia.Particlefilter, harness.Raw, "particlefilter/raw"},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			inst, build := benchBuild(b, v.bench, v.tech)
			mod := inst.Mod
			if build.ProtectedIR != nil {
				mod = build.ProtectedIR
			}
			ip, err := ir.NewInterp(mod, harness.MemSize)
			if err != nil {
				b.Fatal(err)
			}
			if err := inst.Setup(ip); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var steps uint64
			for i := 0; i < b.N; i++ {
				res := ip.Run(ir.RunOpts{Args: inst.Args})
				if res.Outcome != ir.OutcomeOK {
					b.Fatalf("%v (%s)", res.Outcome, res.CrashMsg)
				}
				steps = res.Steps
			}
			b.ReportMetric(float64(steps), "steps")
			b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msteps/s")
		})
	}
}

// BenchmarkCampaignThroughput measures fault-injection throughput, the
// quantity that bounds full fig. 10 reproduction time.
func BenchmarkCampaignThroughput(b *testing.B) {
	inst, err := rodinia.BFS.Instantiate(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := backend.Compile(inst.Mod)
	if err != nil {
		b.Fatal(err)
	}
	tgt := fi.AsmTarget{
		Prog:    prog,
		MemSize: harness.MemSize,
		Args:    inst.Args,
		Setup:   func(w fi.MemWriter) error { return inst.Setup(w) },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fi.RunAsmCampaign(tgt, fi.Campaign{Samples: 100, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAsmCampaign compares the direct, checkpointed and pruned
// campaign paths on the FERRUM-protected cell (the suite's dominant cost).
// Detected plans stop within a few dozen cycles of injection, so a
// protected cell's time goes to its Benign plans. The checkpointed path
// skips each plan's prefix and ends a masked plan at the first golden
// checkpoint its state rejoins, instead of running it to the program's
// end. Pruning answers provably-Benign plans without executing and dedups
// value-identical ones. plans/s counts planned samples, so the
// pruned mode's rate includes statically-answered plans; the executed
// metric shows how many plans actually ran. BENCH_micro.json tracks the
// three paths' ns/op.
func BenchmarkAsmCampaign(b *testing.B) {
	tgt := bfsAsmTarget(b, harness.Ferrum)
	for _, mode := range []struct {
		name string
		c    fi.Campaign
	}{
		{"direct", fi.Campaign{Samples: benchSamples, Seed: harness.DefaultSeed, NoCheckpoint: true}},
		{"checkpointed", fi.Campaign{Samples: benchSamples, Seed: harness.DefaultSeed}},
		{"pruned", fi.Campaign{Samples: benchSamples, Seed: harness.DefaultSeed, Prune: fi.PruneFull}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var res fi.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = fi.RunAsmCampaign(tgt, mode.c)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(benchSamples)*float64(b.N)/b.Elapsed().Seconds(), "plans/s")
			if cp := res.Checkpoint; cp.Enabled {
				b.ReportMetric(float64(cp.Interval), "K")
				b.ReportMetric(float64(cp.SkippedInsts), "skipped-insts")
			}
			if pr := res.Pruned; pr.Enabled {
				b.ReportMetric(float64(pr.Executed), "executed")
			}
		})
	}
}

// composeSamples is BenchmarkCompose's per-campaign budget. The reuse side's
// cost is sample-independent (the golden run only), so the paper-scale
// budget is what makes the headline ratio honest.
const composeSamples = 1000

// BenchmarkCompose measures the compositional campaign's section-reuse
// speedup, which the compose gate of BENCH_micro.json (scripts/bench) holds
// at 3x or more: 'full' runs the composed campaign cold (fresh section cache
// every iteration — the golden run and every plan executed), 'reuse' runs
// the identical campaign against warm tables (every plan served from
// cache; only the golden run executes). The ratio is the wall-clock saving a
// re-run pays after an edit that reaches no section. The cell is the raw
// (unprotected) bfs campaign — the fault-space measurement a protection
// developer re-runs most, and the one whose plans run longest (no detector
// truncates them), so it is also where composition pays most.
func BenchmarkCompose(b *testing.B) {
	tgt := bfsAsmTarget(b, harness.Raw)
	base := fi.Campaign{Samples: composeSamples, Seed: harness.DefaultSeed, Compose: fi.ComposeOn}

	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := base
			c.SectionCache = compose.NewCache() // cold: every plan executes
			if _, err := fi.RunAsmCampaign(tgt, c); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(composeSamples)*float64(b.N)/b.Elapsed().Seconds(), "plans/s")
	})
	b.Run("reuse", func(b *testing.B) {
		warm := compose.NewCache()
		c := base
		c.SectionCache = warm
		if _, err := fi.RunAsmCampaign(tgt, c); err != nil {
			b.Fatal(err) // populate the tables outside the timer
		}
		b.ResetTimer()
		var res fi.Result
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := base
			c.SectionCache = warm.Clone() // shared tables, fresh counters
			b.StartTimer()
			var err error
			res, err = fi.RunAsmCampaign(tgt, c)
			if err != nil {
				b.Fatal(err)
			}
		}
		if res.Checkpoint.Restores != 0 || res.Checkpoint.ColdStarts != 0 {
			b.Fatalf("warm run executed plans: %+v", res.Checkpoint)
		}
		b.ReportMetric(float64(composeSamples)*float64(b.N)/b.Elapsed().Seconds(), "plans/s")
	})
}

// BenchmarkComposeRerun times the warm composed re-run that e2ebench's
// compose-rerun workload measures, on two benchmarks: harness.Fig10 with
// compose on over bfs and particlefilter × the four techniques at 300
// samples, on the build and section caches a cold pass filled outside the
// timer. Every plan is served from the section cache, so what it times is
// each cell's build lookup, golden run, section keying and cache lookups —
// the fixed cost the build entry's key memo and site-count hint cut.
func BenchmarkComposeRerun(b *testing.B) {
	const samples = 300
	opts := harness.Options{Samples: samples, Seed: harness.DefaultSeed, Compose: fi.ComposeOn,
		Benchmarks: []string{"bfs", "particlefilter"}, Cache: harness.NewBuildCache(), SectionCache: compose.NewCache()}
	if _, err := harness.Fig10(opts); err != nil {
		b.Fatal(err) // the cold pass fills both caches outside the timer
	}
	b.ResetTimer()
	var rows []harness.Fig10Row
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = harness.Fig10(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cells := 0
	for _, row := range rows {
		for tech, res := range row.Counts {
			if cp := res.Checkpoint; cp.Restores != 0 || cp.ColdStarts != 0 {
				b.Fatalf("%s/%s: warm run executed plans: %+v", row.Benchmark, tech, cp)
			}
			cells++
		}
	}
	b.ReportMetric(float64(cells*samples)*float64(b.N)/b.Elapsed().Seconds(), "plans/s")
}

// BenchmarkObsOverhead proves the observability layer is off-path: the same
// checkpointed FERRUM campaign with instrumentation disabled (nil Obs — the
// default), and with a live observer collecting spans and counters. The two
// must stay within a few percent: spans wrap campaign phases, never the
// per-plan inner loop. The obs gate of BENCH_micro.json (scripts/bench)
// holds the disabled mode to BenchmarkAsmCampaign/checkpointed.
func BenchmarkObsOverhead(b *testing.B) {
	tgt := bfsAsmTarget(b, harness.Ferrum)
	for _, mode := range []struct {
		name string
		cx   func() *obs.Ctx
	}{
		{"disabled", func() *obs.Ctx { return nil }},
		{"enabled", func() *obs.Ctx { return obs.New().Cell("bfs/ferrum", 1) }},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := fi.Campaign{Samples: benchSamples, Seed: harness.DefaultSeed, Obs: mode.cx()}
				if _, err := fi.RunAsmCampaign(tgt, c); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(benchSamples)*float64(b.N)/b.Elapsed().Seconds(), "plans/s")
		})
	}
}

// BenchmarkIRCampaign is the IR-level counterpart of BenchmarkAsmCampaign
// (EDDI-protected module, the gap experiment's expensive half).
func BenchmarkIRCampaign(b *testing.B) {
	inst, build := benchBuild(b, rodinia.BFS, harness.IREDDI)
	tgt := fi.IRTarget{
		Mod:     build.ProtectedIR,
		MemSize: harness.MemSize,
		Args:    inst.Args,
		Setup:   func(w fi.MemWriter) error { return inst.Setup(w) },
	}
	for _, mode := range []struct {
		name string
		c    fi.Campaign
	}{
		{"direct", fi.Campaign{Samples: benchSamples, Seed: harness.DefaultSeed, NoCheckpoint: true}},
		{"checkpointed", fi.Campaign{Samples: benchSamples, Seed: harness.DefaultSeed}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var res fi.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = fi.RunIRCampaign(tgt, mode.c)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(benchSamples)*float64(b.N)/b.Elapsed().Seconds(), "plans/s")
			if cp := res.Checkpoint; cp.Enabled {
				b.ReportMetric(float64(cp.Interval), "K")
				b.ReportMetric(float64(cp.SkippedInsts), "skipped-insts")
			}
		})
	}
}

func goldenCycles(b *testing.B, prog *ferrumProg, inst *rodinia.Instance) float64 {
	b.Helper()
	m, err := machine.New(prog, harness.MemSize)
	if err != nil {
		b.Fatal(err)
	}
	if err := inst.Setup(m); err != nil {
		b.Fatal(err)
	}
	res := m.Run(machine.RunOpts{Args: inst.Args})
	if res.Outcome != machine.OutcomeOK {
		b.Fatalf("golden run: %v (%s)", res.Outcome, res.CrashMsg)
	}
	return res.Cycles
}

// ferrumProg aliases the assembly program type for the helper signature.
type ferrumProg = Program

// BenchmarkExtensionZMM compares YMM (paper) with ZMM (AVX-512) batching —
// the §III-B3 extension. ZMM halves the number of check branches but only
// pays off when basic blocks are long enough to fill 8-result batches.
func BenchmarkExtensionZMM(b *testing.B) {
	inst, err := rodinia.Pathfinder.Instantiate(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := backend.Compile(inst.Mod)
	if err != nil {
		b.Fatal(err)
	}
	raw := goldenCycles(b, prog, inst)
	for _, cfg := range []struct {
		name string
		c    ferrumpass.Config
	}{
		{"ymm", ferrumpass.Config{}},
		{"zmm", ferrumpass.Config{UseZMM: true}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var prot = prog
			var rep *ferrumpass.Report
			for i := 0; i < b.N; i++ {
				p, r, err := ferrumpass.Protect(prog, cfg.c)
				if err != nil {
					b.Fatal(err)
				}
				prot, rep = p, r
			}
			b.ReportMetric(fi.Overhead(raw, goldenCycles(b, prot, inst))*100, "overhead%")
			b.ReportMetric(float64(rep.Batches), "batches")
		})
	}
}

// BenchmarkExtensionSelective sweeps the protection ratio, reporting the
// coverage/overhead tradeoff curve of SDCTune-style selective protection.
func BenchmarkExtensionSelective(b *testing.B) {
	inst, err := rodinia.BFS.Instantiate(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := backend.Compile(inst.Mod)
	if err != nil {
		b.Fatal(err)
	}
	tgt := func(p *Program) fi.AsmTarget {
		return fi.AsmTarget{
			Prog:    p,
			MemSize: harness.MemSize,
			Args:    inst.Args,
			Setup:   func(w fi.MemWriter) error { return inst.Setup(w) },
		}
	}
	rawRes, err := fi.RunAsmCampaign(tgt(prog), fi.Campaign{Samples: benchSamples, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	for _, ratio := range []float64{0.25, 0.5, 0.75, 1.0} {
		ratio := ratio
		b.Run(fmt.Sprintf("ratio%.0f", ratio*100), func(b *testing.B) {
			var res fi.Result
			for i := 0; i < b.N; i++ {
				prot, _, err := ferrumpass.Protect(prog, ferrumpass.Config{
					Select: ferrumpass.SelectRatio(ratio, 5),
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err = fi.RunAsmCampaign(tgt(prot), fi.Campaign{Samples: benchSamples, Seed: 5})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(fi.Coverage(rawRes, res)*100, "coverage%")
			b.ReportMetric(fi.Overhead(rawRes.Cycles, res.Cycles)*100, "overhead%")
		})
	}
}

// BenchmarkExtensionMultiBit injects 1-3 bit upsets into the protected
// binary; coverage must hold at 100% for all of them.
func BenchmarkExtensionMultiBit(b *testing.B) {
	inst, err := rodinia.LUD.Instantiate(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := backend.Compile(inst.Mod)
	if err != nil {
		b.Fatal(err)
	}
	prot, _, err := ferrumpass.Protect(prog, ferrumpass.Config{})
	if err != nil {
		b.Fatal(err)
	}
	tgt := fi.AsmTarget{
		Prog:    prot,
		MemSize: harness.MemSize,
		Args:    inst.Args,
		Setup:   func(w fi.MemWriter) error { return inst.Setup(w) },
	}
	for _, bits := range []int{1, 2, 3} {
		bits := bits
		b.Run(fmt.Sprintf("bits%d", bits), func(b *testing.B) {
			var res fi.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = fi.RunAsmCampaign(tgt, fi.Campaign{
					Samples: benchSamples, Seed: 5, BitsPerFault: bits,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Count(fi.SDC)), "sdc")
			b.ReportMetric(res.Rate(fi.Detected)*100, "detected%")
		})
	}
}

// BenchmarkExtensionGuidedSelective compares SDCTune-style
// proneness-guided selective protection against a uniform random subset at
// the same budget: guided coverage should dominate.
func BenchmarkExtensionGuidedSelective(b *testing.B) {
	inst, err := rodinia.BFS.Instantiate(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := backend.Compile(inst.Mod)
	if err != nil {
		b.Fatal(err)
	}
	tgt := fi.AsmTarget{
		Prog:    prog,
		MemSize: harness.MemSize,
		Args:    inst.Args,
		Setup:   func(w fi.MemWriter) error { return inst.Setup(w) },
	}
	stats, err := fi.ProfileProneness(tgt, fi.Campaign{Samples: 500, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	rawRes, err := fi.RunAsmCampaign(tgt, fi.Campaign{Samples: benchSamples, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	const fraction = 0.3
	for _, v := range []struct {
		name string
		sel  ferrumpass.Selector
	}{
		{"guided", harness.GuidedSelector(stats, fraction)},
		{"random", ferrumpass.SelectRatio(fraction, 5)},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var cov float64
			for i := 0; i < b.N; i++ {
				prot, _, err := ferrumpass.Protect(prog, ferrumpass.Config{Select: v.sel})
				if err != nil {
					b.Fatal(err)
				}
				res, err := fi.RunAsmCampaign(fi.AsmTarget{
					Prog: prot, MemSize: harness.MemSize, Args: inst.Args,
					Setup: func(w fi.MemWriter) error { return inst.Setup(w) },
				}, fi.Campaign{Samples: benchSamples, Seed: 9})
				if err != nil {
					b.Fatal(err)
				}
				cov = fi.Coverage(rawRes, res)
			}
			b.ReportMetric(cov*100, "coverage%")
		})
	}
}

// BenchmarkO1Pipeline reports the evaluation at the optimised build level:
// the cross-layer gap widens when slot traffic is optimised away.
func BenchmarkO1Pipeline(b *testing.B) {
	for _, o1 := range []bool{false, true} {
		o1 := o1
		name := "O0"
		if o1 {
			name = "O1"
		}
		b.Run(name, func(b *testing.B) {
			opts := benchOpts("knn")
			opts.Optimize = o1
			var rows []harness.GapRow
			var err error
			for i := 0; i < b.N; i++ {
				rows, err = harness.Gap(opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rows[0].Gap*100, "gap%")
		})
	}
}
