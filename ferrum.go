// Package ferrum is a from-scratch Go reproduction of "A Fast Low-Level
// Error Detection Technique" (DSN 2024): FERRUM, an assembly-level
// error-detection-by-duplicated-instructions (EDDI) transform boosted with
// SIMD batching, deferred RFLAGS protection and stack-based register
// requisition, together with every substrate the paper depends on — an
// LLVM-like IR, an unoptimising IR-to-x86-64 backend, an x86-64 subset
// machine simulator with a calibrated cycle model, IR- and assembly-level
// fault injectors, the two baseline protections (IR-LEVEL-EDDI and
// HYBRID-ASSEMBLY-LEVEL-EDDI), the eight Rodinia evaluation kernels, and a
// harness that regenerates the paper's tables and figures.
//
// Quick start:
//
//	pipe := ferrum.New()
//	prog, _ := pipe.CompileIR(src)          // IR text -> x86-64 subset
//	prot, rep, _ := pipe.Protect(prog)      // apply FERRUM
//	res, _ := pipe.Run(prot, args, data)    // execute on the machine model
//	camp, _ := pipe.Campaign(prot, args, data, ferrum.Campaign{Samples: 1000})
//
// See the examples directory for complete programs and DESIGN.md for the
// system inventory and experiment index.
package ferrum

import (
	"ferrum/internal/asm"
	"ferrum/internal/core"
	"ferrum/internal/eddi"
	"ferrum/internal/ferrumpass"
	"ferrum/internal/fi"
	"ferrum/internal/harness"
	"ferrum/internal/ir"
	"ferrum/internal/machine"
	"ferrum/internal/rodinia"
)

// Pipeline is the configured toolchain; see New.
type Pipeline = core.Pipeline

// New returns a toolchain with default settings.
func New() *Pipeline { return core.New() }

// Core transformation types.
type (
	// Config tunes the FERRUM pass: SIMD batch size, SIMD ablation, and
	// spare-register overrides for exercising stack requisition.
	Config = ferrumpass.Config
	// Report summarises one FERRUM transform (annotation counts, batches,
	// requisitions, duration).
	Report = ferrumpass.Report
	// HybridReport summarises the hybrid baseline's assembly pass.
	HybridReport = eddi.Report
	// Selector restricts protection to a chosen instruction subset
	// (selective protection, an SDCTune-style extension).
	Selector = ferrumpass.Selector
)

// SelectRatio builds a deterministic Selector protecting roughly the given
// fraction of instructions.
func SelectRatio(ratio float64, seed int64) Selector {
	return ferrumpass.SelectRatio(ratio, seed)
}

// Program representations.
type (
	// Module is a parsed IR compilation unit.
	Module = ir.Module
	// Program is an assembly program in the modelled x86-64 subset.
	Program = asm.Program
	// Machine executes programs and hosts fault injection.
	Machine = machine.Machine
	// MachineResult is one execution's outcome, output and cycle count.
	MachineResult = machine.Result
	// RunOpts configures one machine execution (arguments, step budget,
	// optional fault plan).
	RunOpts = machine.RunOpts
)

// Fault-injection types.
type (
	// Campaign configures a statistical fault-injection campaign.
	Campaign = fi.Campaign
	// CampaignResult aggregates campaign outcomes.
	CampaignResult = fi.Result
	// Fault is a single planned bit flip (dynamic site index + bit).
	Fault = machine.Fault
)

// Campaign outcome classes.
const (
	OutcomeBenign   = fi.Benign
	OutcomeSDC      = fi.SDC
	OutcomeDetected = fi.Detected
	OutcomeCrash    = fi.Crash
	OutcomeHang     = fi.Hang
)

// Coverage computes the paper's SDC-coverage metric from a raw and a
// protected campaign result: (SDC_raw - SDC_prot) / SDC_raw.
func Coverage(raw, prot CampaignResult) float64 { return fi.Coverage(raw, prot) }

// Overhead computes the paper's runtime-overhead metric from golden-run
// cycle counts.
func Overhead(rawCycles, protCycles float64) float64 { return fi.Overhead(rawCycles, protCycles) }

// Experiment harness: techniques and reproduction entry points.
type (
	// Technique identifies a protection scheme from the paper.
	Technique = harness.Technique
	// ExperimentOptions configures a reproduction run.
	ExperimentOptions = harness.Options
	// BuildCache memoises benchmark instances, technique builds, their
	// decoded programs and golden runs; share one across experiment calls
	// (ExperimentOptions.Cache) so each (benchmark, technique, optimize)
	// program is compiled and decoded once whatever inputs use it, and each
	// golden runs once per input.
	BuildCache = harness.BuildCache
	// CellEvent is one scheduler cell transition, streamed to
	// ExperimentOptions.Progress.
	CellEvent = harness.CellEvent
	// CacheStats snapshots a BuildCache's hit/miss counters.
	CacheStats = harness.CacheStats
)

// DefaultSeed is the seed the paper-scale reproduction uses; the harness
// honours every seed, including zero.
const DefaultSeed = harness.DefaultSeed

// NewBuildCache returns an empty experiment build cache.
func NewBuildCache() *BuildCache { return harness.NewBuildCache() }

// The paper's techniques.
const (
	Raw    = harness.Raw
	IREDDI = harness.IREDDI
	Hybrid = harness.Hybrid
	Ferrum = harness.Ferrum
)

// Experiment entry points; each returns structured rows, and the matching
// Render function formats them as the paper's table or figure.
var (
	Fig10          = harness.Fig10
	Fig11          = harness.Fig11
	ExecTime       = harness.ExecTime
	CrossLayerGap  = harness.Gap
	Table1         = harness.Table1
	Table2         = harness.Table2
	RenderFig10    = harness.RenderFig10
	RenderFig11    = harness.RenderFig11
	RenderExecTime = harness.RenderExecTime
	RenderGap      = harness.RenderGap
	RenderTable1   = harness.RenderTable1
	RenderTable2   = harness.RenderTable2
)

// Benchmark access (Table II workloads).
type (
	// Benchmark is one Rodinia workload.
	Benchmark = rodinia.Benchmark
	// BenchmarkInstance is a benchmark instantiated with inputs.
	BenchmarkInstance = rodinia.Instance
)

// Benchmark registry accessors.
var (
	Benchmarks      = rodinia.All
	BenchmarkByName = rodinia.ByName
)

// ParseIR parses IR source text into a verified module.
func ParseIR(src string) (*Module, error) { return ir.Parse(src) }

// ParseASM parses assembly source text.
func ParseASM(src string) (*Program, error) { return asm.Parse(src) }

// Programmatic IR construction.
type (
	// IRBuilder constructs modules programmatically; see ir.Builder.
	IRBuilder = ir.Builder
	// FuncBuilder builds one IR function.
	FuncBuilder = ir.FuncBuilder
	// BlockBuilder appends instructions to one IR block.
	BlockBuilder = ir.BlockBuilder
)

// NewIRBuilder returns an empty module builder.
func NewIRBuilder() *IRBuilder { return ir.NewBuilder() }

// Proneness profiling and guided selective protection (SDCTune-style).
type (
	// SiteStats aggregates per-instruction fault outcomes.
	SiteStats = fi.SiteStats
	// SiteLoc is a static instruction location (function, index).
	SiteLoc = machine.SiteLoc
	// MemWriter installs benchmark data into a machine or interpreter.
	MemWriter = fi.MemWriter
)

// ProfileProneness attributes a raw-binary campaign's faults to static
// instructions, sorted by descending SDC-proneness.
func ProfileProneness(prog *Program, memSize int, args []uint64,
	setup func(MemWriter) error, c Campaign) ([]SiteStats, error) {
	return fi.ProfileProneness(fi.AsmTarget{
		Prog: prog, MemSize: memSize, Args: args, Setup: setup,
	}, c)
}

// GuidedSelector spends a protection budget on the instructions with the
// highest observed SDC mass.
var GuidedSelector = harness.GuidedSelector
