// Package harness assembles the paper's evaluation (§IV): it builds each
// benchmark under each protection technique, runs assembly-level and
// IR-level fault-injection campaigns, measures runtime overhead on the
// machine cycle model, and renders every table and figure of the paper
// (Table I, Table II, fig. 10, fig. 11, the §IV-B3 transform-time
// measurement, and the cross-layer anticipated-vs-measured coverage gap).
package harness

import (
	"fmt"
	"slices"
	"time"

	"ferrum/internal/asm"
	"ferrum/internal/backend"
	"ferrum/internal/compose"
	"ferrum/internal/eddi"
	"ferrum/internal/ferrumpass"
	"ferrum/internal/fi"
	"ferrum/internal/ir"
	"ferrum/internal/irpass"
	"ferrum/internal/obs"
	"ferrum/internal/opt"
	"ferrum/internal/rodinia"
)

// Technique identifies one protection scheme from the paper's evaluation.
type Technique string

// The paper's techniques. Raw is the unprotected baseline every metric is
// relative to.
const (
	Raw    Technique = "raw"
	IREDDI Technique = "ir-level-eddi"
	Hybrid Technique = "hybrid-assembly-level-eddi"
	Ferrum Technique = "ferrum"
)

// Techniques lists the protected techniques in the paper's presentation
// order.
var Techniques = []Technique{IREDDI, Hybrid, Ferrum}

// Build holds one compiled (and possibly protected) benchmark binary plus
// metadata about the transformation.
type Build struct {
	Technique   Technique
	Prog        *asm.Program
	ProtectedIR *ir.Module    // IR after IR-level passes (nil for asm-only)
	Transform   time.Duration // wall-clock protection time (FERRUM: §IV-B3)
	FerrumStats *ferrumpass.Report
	HybridStats *eddi.Report
}

// BuildTechnique compiles the module under the given technique:
//
//	raw:     backend only
//	ir-eddi: irpass.EDDI -> backend
//	hybrid:  irpass.Signature -> backend -> eddi.Protect
//	ferrum:  backend -> ferrumpass.Protect
func BuildTechnique(mod *ir.Module, tech Technique) (*Build, error) {
	return BuildTechniqueOpts(mod, tech, BuildOptions{})
}

// BuildOptions tunes the build pipeline.
type BuildOptions struct {
	// Optimize inserts the -O1-style peephole optimizer between the
	// backend and the assembly-level protection passes, modelling
	// production compilation (see internal/opt).
	Optimize bool
}

// BuildTechniqueOpts compiles the module under the given technique with
// explicit build options.
func BuildTechniqueOpts(mod *ir.Module, tech Technique, bo BuildOptions) (*Build, error) {
	b := &Build{Technique: tech}
	compile := func(m *ir.Module) (*asm.Program, error) {
		prog, err := backend.Compile(m)
		if err != nil {
			return nil, err
		}
		if bo.Optimize {
			prog, _, err = opt.Optimize(prog)
			if err != nil {
				return nil, err
			}
		}
		return prog, nil
	}
	switch tech {
	case Raw:
		prog, err := compile(mod)
		if err != nil {
			return nil, err
		}
		b.Prog = prog
	case IREDDI:
		start := time.Now()
		prot, err := irpass.EDDI(mod)
		if err != nil {
			return nil, err
		}
		b.Transform = time.Since(start)
		b.ProtectedIR = prot
		prog, err := compile(prot)
		if err != nil {
			return nil, err
		}
		b.Prog = prog
	case Hybrid:
		start := time.Now()
		sig, err := irpass.Signature(mod)
		if err != nil {
			return nil, err
		}
		b.ProtectedIR = sig
		prog, err := compile(sig)
		if err != nil {
			return nil, err
		}
		prot, rep, err := eddi.Protect(prog)
		if err != nil {
			return nil, err
		}
		b.Transform = time.Since(start)
		b.Prog = prot
		b.HybridStats = rep
	case Ferrum:
		prog, err := compile(mod)
		if err != nil {
			return nil, err
		}
		prot, rep, err := ferrumpass.Protect(prog, ferrumpass.Config{})
		if err != nil {
			return nil, err
		}
		b.Prog = prot
		b.Transform = rep.Duration
		b.FerrumStats = rep
	default:
		return nil, fmt.Errorf("harness: unknown technique %q", tech)
	}
	return b, nil
}

// DefaultSeed is the seed the paper-scale reproduction uses. It is applied
// at the flag layer (cmd/reprod defaults -seed to it); the harness itself
// treats every seed — including zero — as an honest seed.
const DefaultSeed int64 = 20240624

// Options configures an experiment run.
type Options struct {
	Samples int // fault injections per campaign cell (paper: 1000)
	// Seed is the base RNG seed. Zero is a real seed, not "use default";
	// callers wanting the paper's seed pass DefaultSeed explicitly.
	Seed       int64
	Scale      int      // benchmark scale factor (1 = default)
	MemSize    int      // campaign machine/interpreter memory (0 = 1 MiB)
	Workers    int      // intra-campaign parallelism (0 = GOMAXPROCS/CellWorkers)
	Benchmarks []string // nil = all eight
	// Optimize runs every build through the -O1-style peephole optimizer
	// before protection, modelling production compilation.
	Optimize bool
	// CellWorkers bounds how many independent (benchmark × technique)
	// campaign cells run concurrently (0 = GOMAXPROCS). Rendered tables
	// are byte-identical for any value: fault plans are pre-generated per
	// cell from the seed and results land in per-cell slots.
	CellWorkers int
	// Cache memoises benchmark instances, technique builds and golden runs.
	// Pass one cache to several experiment calls to share builds across a
	// whole suite (cmd/reprod does); nil gives each call a private cache.
	Cache *BuildCache
	// Progress, if non-nil, receives live cell status events. Callbacks
	// are serialised by the scheduler, so implementations need no locking
	// of their own.
	Progress func(CellEvent)
	// NoCheckpoint disables checkpointed fast-forwarding in every campaign
	// (see fi.Campaign.NoCheckpoint); results are byte-identical either way.
	NoCheckpoint bool
	// CheckpointEvery overrides the per-campaign snapshot spacing K
	// (0 = auto-tune per cell from DynSites/√Samples).
	CheckpointEvery uint64
	// CellTimeout, if > 0, arms a per-cell watchdog: a cell still running
	// after this long is cooperatively canceled (its campaign stops at the
	// next batch boundary), recorded as ErrCellTimeout and counted in
	// sched.timeouts, while sibling cells keep running. Journaled plans the
	// cell completed before the deadline remain resumable.
	CellTimeout time.Duration
	// MaxRetries re-attempts a transiently failing cell up to this many
	// extra times (sched.retries counts them). Watchdog timeouts are never
	// retried. Retries are deterministic re-runs: results and journal
	// records are identical, so no double counting occurs.
	MaxRetries int
	// RetryBackoff is the sleep before the first retry, doubled each
	// further attempt. Zero retries immediately.
	RetryBackoff time.Duration
	// CIWidth, if > 0, enables Wilson-interval early stopping in every
	// campaign cell (see fi.Campaign.CIWidth): a campaign ends once the 95%
	// CI of its SDC rate over the completed plan prefix is no wider than
	// this, deterministically for any worker count.
	CIWidth float64
	// Prune selects static bit-level fault-site pruning for every
	// assembly-level campaign cell (see fi.Campaign.Prune): plans the
	// liveness/masking analysis proves Benign are answered without
	// executing, and under fi.PruneFull one representative per
	// (static instruction, bit) class stands in for its whole class.
	// IR-level cells ignore it (the analysis is assembly-only).
	// Incompatible with CIWidth.
	Prune fi.PruneMode
	// Compose selects compositional sectioned campaigns for every
	// assembly-level campaign cell (see fi.Campaign.Compose): plans run only
	// to their section boundary, boundary descriptors compose into
	// whole-program outcomes, and per-section propagation tables are cached
	// by content fingerprint so re-runs re-inject only changed sections.
	// IR-level cells ignore it (sections are machine snapshots).
	// Incompatible with Prune, CIWidth and NoCheckpoint.
	Compose fi.ComposeMode
	// SectionCache supplies the section-table cache compose mode serves
	// from. Nil with Compose on uses the BuildCache's shared section cache,
	// so a suite reuses tables across experiments exactly as it reuses
	// builds.
	SectionCache *compose.Cache
	// Journal, if non-nil, makes every campaign cell durable: one record
	// per completed plan and per completed campaign, keyed by
	// "<experiment>/<cell>", fsync-batched (see fi.CreateJournal).
	Journal *fi.Journal
	// Resume, if non-nil, is a loaded journal from an interrupted run:
	// journaled campaigns are answered from their cell records and
	// partially-journaled campaigns re-run only their missing plans,
	// producing byte-identical tables to an uninterrupted run.
	Resume *fi.JournalState
	// Obs, if non-nil, collects metrics and per-phase spans from the
	// scheduler, the build cache and every campaign: cells become timeline
	// slices on their worker's lane, and the suite summary, NDJSON event
	// stream and Perfetto export all render from its registry. Nil disables
	// all instrumentation (nil observer handles are no-ops throughout).
	Obs *obs.Observer
}

// defaultMemSize is the machine/interpreter memory every campaign gets
// unless Options.MemSize overrides it.
const defaultMemSize = 1 << 20

// Campaign is the template every campaign cell of these options starts
// from: the result-shaping fields plus the shared section cache and
// journal. The scheduler adds the per-cell fields (workers, journal key,
// prior, cancellation, observability), and Meta fingerprints the same
// template, so a field the cells run with cannot be missing from the
// journal meta.
func (o Options) Campaign() fi.Campaign {
	return fi.Campaign{
		Samples:         o.Samples,
		Seed:            o.Seed,
		NoCheckpoint:    o.NoCheckpoint,
		CheckpointEvery: o.CheckpointEvery,
		CIWidth:         o.CIWidth,
		Prune:           o.Prune,
		Compose:         o.Compose,
		SectionCache:    o.SectionCache,
		Journal:         o.Journal,
	}
}

// Meta derives the journal meta of a run of these options under the given
// tool and experiment names: the template campaign's plan-space fields plus
// the target fields (benchmarks, scale, optimize, a non-default MemSize).
func (o Options) Meta(tool, exp string) fi.JournalMeta {
	m := o.Campaign().Meta()
	m.Tool, m.Exp = tool, exp
	m.Benchmarks, m.Scale, m.Optimize = o.Benchmarks, o.Scale, o.Optimize
	if o.MemSize != defaultMemSize {
		m.MemSize = o.MemSize
	}
	return m
}

// Check validates the options before anything runs or is journaled: every
// benchmark name, and the template campaign's run-mode matrix
// (fi.Campaign.Check; IR-level cells drop prune and compose themselves).
func (o Options) Check() error {
	for _, name := range o.Benchmarks {
		if _, ok := rodinia.ByName(name); !ok {
			return fmt.Errorf("harness: unknown benchmark %q", name)
		}
	}
	return o.Campaign().Check()
}

// CampaignSpec names one injection campaign precisely enough for another
// process to reproduce it: the deterministic plan space (samples, seed,
// bits) plus the target recipe (benchmark, scale, technique, level,
// optimization). It deliberately carries no worker counts, journal paths or
// checkpoint tuning — nothing that can change the campaign's result.
type CampaignSpec struct {
	Bench     string    `json:"bench"`
	Technique Technique `json:"technique"`
	Level     string    `json:"level"` // "asm" or "ir"
	Samples   int       `json:"samples"`
	Seed      int64     `json:"seed"`
	Scale     int       `json:"scale"`
	Bits      int       `json:"bits,omitempty"`
	Optimize  bool      `json:"optimize,omitempty"`
}

// Campaign returns c with the spec's plan-space fields filled in: samples,
// seed and (when set) bits per fault. c supplies everything else.
func (sp CampaignSpec) Campaign(c fi.Campaign) fi.Campaign {
	c.Samples, c.Seed = sp.Samples, sp.Seed
	if sp.Bits > 0 {
		c.BitsPerFault = sp.Bits
	}
	return c
}

// Check validates the spec's recipe — a known technique, a known level,
// and at IR level a technique with an IR form — and the campaign it runs
// with c, against that level's mode matrix.
func (sp CampaignSpec) Check(c fi.Campaign) error {
	if sp.Technique != Raw && !slices.Contains(Techniques, sp.Technique) {
		return fmt.Errorf("harness: unknown technique %q", sp.Technique)
	}
	switch sp.Level {
	case "asm":
		return sp.Campaign(c).Check()
	case "ir":
		if sp.Technique != Raw && sp.Technique != IREDDI {
			return fmt.Errorf("harness: IR-level injection supports raw and ir-level-eddi, not %q", sp.Technique)
		}
		return sp.Campaign(c).CheckIR()
	}
	return fmt.Errorf("harness: unknown injection level %q", sp.Level)
}

// Meta derives the journal meta of the spec's campaign run with c: the
// plan-space fields of sp.Campaign(c) plus the spec's target fields.
func (sp CampaignSpec) Meta(tool string, c fi.Campaign) fi.JournalMeta {
	m := sp.Campaign(c).Meta()
	m.Tool, m.Benchmarks = tool, []string{sp.Bench}
	m.Technique, m.Level = string(sp.Technique), sp.Level
	m.Scale, m.Optimize = sp.Scale, sp.Optimize
	return m
}

// RunSpec executes one CampaignSpec in this process: it instantiates the
// named benchmark at the spec's scale and seed, builds the technique, and
// runs the injection campaign. The caller's Campaign supplies everything a
// spec deliberately omits — worker count, sharding, journal, observability —
// while RunSpec fills in the result-determining fields from the spec.
// fiserve workers execute leased shards through this, and it reproduces
// the in-process experiment cells exactly.
func RunSpec(spec CampaignSpec, c fi.Campaign) (fi.Result, error) {
	if err := spec.Check(c); err != nil {
		return fi.Result{}, err
	}
	b, ok := rodinia.ByName(spec.Bench)
	if !ok {
		return fi.Result{}, fmt.Errorf("harness: unknown benchmark %q", spec.Bench)
	}
	scale := spec.Scale
	if scale == 0 {
		scale = 1
	}
	inst, err := b.Instantiate(scale, spec.Seed)
	if err != nil {
		return fi.Result{}, err
	}
	c = spec.Campaign(c)
	bo := BuildOptions{Optimize: spec.Optimize}
	if spec.Level == "ir" {
		mod := inst.Mod
		if spec.Technique == IREDDI {
			build, err := BuildTechniqueOpts(inst.Mod, IREDDI, bo)
			if err != nil {
				return fi.Result{}, err
			}
			mod = build.ProtectedIR
		}
		return fi.RunIRCampaign(irTarget(inst, mod, defaultMemSize), c)
	}
	build, err := BuildTechniqueOpts(inst.Mod, spec.Technique, bo)
	if err != nil {
		return fi.Result{}, err
	}
	return fi.RunAsmCampaign(asmTarget(inst, build, defaultMemSize), c)
}

func (o Options) withDefaults() Options {
	if o.Samples == 0 {
		o.Samples = 1000
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.MemSize == 0 {
		o.MemSize = defaultMemSize
	}
	if o.Benchmarks == nil {
		for _, b := range rodinia.All() {
			o.Benchmarks = append(o.Benchmarks, b.Name)
		}
	}
	if o.Cache == nil {
		o.Cache = NewBuildCache()
	}
	if o.SectionCache == nil && o.Compose != fi.ComposeOff {
		o.SectionCache = o.Cache.Sections()
	}
	// Bind the cache's counters into the observer's registry so cache.*
	// metrics appear alongside everything else (idempotent per observer).
	o.Cache.Observe(o.Obs)
	o.SectionCache.Observe(o.Obs)
	o.Journal.Observe(o.Obs)
	return o
}

func (o Options) instances() ([]*rodinia.Instance, error) {
	return o.instancesAt(o.Seed)
}

// instancesAt instantiates the selected benchmarks at an explicit seed
// (Variation shifts the base seed per cell), memoised through the cache.
func (o Options) instancesAt(seed int64) ([]*rodinia.Instance, error) {
	var out []*rodinia.Instance
	for _, name := range o.Benchmarks {
		b, ok := rodinia.ByName(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown benchmark %q", name)
		}
		var inst *rodinia.Instance
		var err error
		if o.Cache != nil {
			inst, err = o.Cache.instance(b, o.Scale, seed)
		} else {
			inst, err = b.Instantiate(o.Scale, seed)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, inst)
	}
	return out, nil
}
