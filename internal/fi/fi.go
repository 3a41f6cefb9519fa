// Package fi implements the paper's fault-injection methodology (§IV-A2):
// statistical single-bit-flip campaigns against the machine model (the
// PINFI-style assembly-level injector) and against the IR interpreter (the
// LLFI-style injector used for "anticipated" coverage). One fault is
// sampled per execution: a uniformly random dynamic instruction with an
// architectural destination, and a uniformly random bit of that
// destination.
package fi

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"ferrum/internal/asm"
	"ferrum/internal/compose"
	"ferrum/internal/ir"
	"ferrum/internal/machine"
	"ferrum/internal/obs"
	"ferrum/internal/prune"
)

// ErrNoSites reports a campaign whose golden run exposed no fault-injection
// sites: there is nothing to sample a plan from.
var ErrNoSites = errors.New("fi: program has no fault-injection sites")

// Outcome classifies one injected execution against the golden run.
type Outcome uint8

// Injection outcomes.
const (
	Benign   Outcome = iota // completed with the correct output
	SDC                     // completed with a silently wrong output
	Detected                // a checker trapped
	Crash                   // memory fault, divide error, bad control transfer
	Hang                    // exceeded the step budget
	numOutcomes
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Benign:
		return "benign"
	case SDC:
		return "sdc"
	case Detected:
		return "detected"
	case Crash:
		return "crash"
	case Hang:
		return "hang"
	}
	return fmt.Sprintf("outcome?%d", o)
}

// Campaign configures an injection campaign.
type Campaign struct {
	Samples  int    // number of injected executions (paper: 1000)
	Seed     int64  // RNG seed; campaigns are deterministic given a seed
	MaxSteps uint64 // per-run dynamic instruction budget (0: default)
	Workers  int    // parallel workers (0: GOMAXPROCS)
	// BitsPerFault is the number of distinct bits flipped in the sampled
	// destination (default 1, the paper's fault model; >1 models the
	// multi-bit upsets §II-A defers to future work; capped per plan at the
	// sampled destination's width). Assembly-level campaigns only.
	BitsPerFault int
	// Prune, if not PruneOff, classifies each sampled (site, bit) pair
	// against the static liveness/masking analysis (internal/prune) and
	// executes only the plans the analysis cannot answer: dead and masked
	// plans are Benign by construction, and under PruneFull one
	// representative stands in for every plan of the same
	// (static instruction, bit) class. Result.Counts still aggregates all
	// Samples plans. Assembly-level campaigns only; incompatible with
	// CIWidth early stopping (the truncation prefix would no longer be a
	// uniform sample).
	Prune PruneMode
	// Compose, if not ComposeOff, runs the campaign compositionally:
	// the program is partitioned into sections at the golden checkpoint
	// boundaries, the sample budget is stratified across sections by site
	// count, and each plan runs only to its section boundary where its
	// propagation descriptor is classified against the downstream live-in
	// state — with an end-to-end fallback whenever the descriptor is
	// ambiguous. ComposeValidate additionally runs the monolithic campaign
	// and reports the rate agreement. Assembly-level campaigns only;
	// incompatible with Prune, CIWidth, sharding and NoCheckpoint.
	Compose ComposeMode
	// SectionCache, if non-nil with Compose on, memoises per-section
	// propagation tables across campaigns keyed by section content
	// fingerprint, so re-running after an edit re-injects only the changed
	// sections and serves the rest from cache.
	SectionCache *compose.Cache
	// Shard, if Count > 1, restricts the campaign to one shard of its plan
	// space: the plans whose generation index is congruent to Shard.Index
	// modulo Shard.Count, re-indexed densely so journaling and resume work
	// per shard (see shard.go). Samples still names the full campaign's
	// sample budget — every shard derives the identical plan sequence from
	// it. Incompatible with Prune and CIWidth.
	Shard ShardSpec
	// Progress, if non-nil, receives the cumulative number of completed
	// injections (out of Samples) as the campaign advances. It may be
	// called concurrently from campaign worker goroutines; implementations
	// must be safe for concurrent use. Journal-replayed plans are reported
	// upfront in one call.
	Progress func(done int)
	// NoCheckpoint disables checkpointed fast-forwarding: every injected
	// run re-executes its unfaulted prefix from instruction zero. The two
	// paths produce byte-identical Result.Counts; this is the escape hatch
	// for debugging and for the equivalence tests.
	NoCheckpoint bool
	// CheckpointEvery overrides the snapshot spacing K (dynamic sites
	// between checkpoints). 0 auto-tunes via DefaultCheckpointInterval.
	CheckpointEvery uint64
	// CIWidth, if > 0, enables Wilson-interval early stopping: the campaign
	// ends once the 95% confidence interval of the SDC rate over the
	// completed plan prefix is no wider than CIWidth. The decision is
	// evaluated at fixed prefix lengths and the result truncated to the
	// qualifying prefix, so stopped results are identical for any worker
	// count. Result.Samples reports the effective (possibly truncated)
	// sample count and Result.EarlyStopped is set.
	CIWidth float64
	// Cancel, if non-nil, cancels the campaign when closed: workers stop at
	// the next batch boundary and the runner returns ErrCampaignCanceled.
	// The harness per-cell watchdog drives this.
	Cancel <-chan struct{}
	// Journal, if non-nil (and Key set), receives one record per completed
	// plan and one per completed campaign, making the campaign resumable
	// after a crash. See CreateJournal/ResumeJournal.
	Journal *Journal
	// Key names this campaign in the journal (e.g. "fig10/bfs/raw/asm").
	// Empty disables journaling even with Journal set.
	Key string
	// Prior, if non-nil, is this campaign's journaled state from a previous
	// interrupted run: journaled plan outcomes are replayed without
	// executing them, and a journaled complete Result short-circuits the
	// whole campaign (golden run included).
	Prior *CellState
	// Obs, if non-nil, attributes the campaign's phases — golden run,
	// snapshot recording, the injection loop — to the owning scheduler cell
	// as spans, and accumulates plan/outcome/checkpoint counters in the
	// observability registry. Nil disables instrumentation at zero cost:
	// nothing inside the per-plan inner loop ever touches it.
	Obs *obs.Ctx
}

// observe publishes a finished campaign's totals to the observability
// registry: plan/outcome counts plus the checkpointing counters. Called
// once per campaign, after the injection loop — never from inside it.
func (c Campaign) observe(res Result) {
	c.observeOutcomes(res)
	if c.Obs == nil {
		return
	}
	if pr := res.Pruned; pr.Enabled {
		c.Obs.Counter(obs.MPrunedCampaigns).Add(1)
		c.Obs.Counter(obs.MPrunedPlans).Add(int64(pr.Planned - pr.Executed))
		c.Obs.Counter(obs.MPrunedDead).Add(int64(pr.Dead))
		c.Obs.Counter(obs.MPrunedMasked).Add(int64(pr.Masked))
		c.Obs.Counter(obs.MPrunedDedup).Add(int64(pr.Deduped))
	}
	if cs := res.Composed; cs.Enabled {
		c.Obs.Counter(obs.MComposedCampaigns).Add(1)
		c.Obs.Counter(obs.MComposedPlans).Add(int64(cs.Sections))
		c.Obs.Counter(obs.MComposedSections).Add(int64(len(cs.Rows)))
		c.Obs.Counter(obs.MComposedFallbacks).Add(int64(cs.Fallbacks))
	}
	if ck := res.Checkpoint; ck.Enabled {
		c.Obs.Counter(obs.MCkptCampaigns).Add(1)
		c.Obs.Counter(obs.MCkptSnapshots).Add(int64(ck.Snapshots))
		c.Obs.Counter(obs.MCkptBytes).Add(int64(ck.SnapshotBytes))
		c.Obs.Counter(obs.MCkptRestores).Add(ck.Restores)
		c.Obs.Counter(obs.MCkptColdStarts).Add(ck.ColdStarts)
		c.Obs.Counter(obs.MCkptSkippedInsts).Add(ck.SkippedInsts)
	}
}

// observeOutcomes publishes the campaign/plan/outcome counters only. This
// is the portion replayed for journal-answered campaigns, so fi.* totals in
// a resumed run reconcile with an uninterrupted one; ckpt.* counters are
// deliberately not replayed — they account for work actually performed by
// this process.
func (c Campaign) observeOutcomes(res Result) {
	if c.Obs == nil {
		return
	}
	c.Obs.Counter(obs.MCampaigns).Add(1)
	c.Obs.Counter(obs.MPlans).Add(int64(res.Samples))
	for o := Outcome(0); o < numOutcomes; o++ {
		if n := res.Counts[o]; n > 0 {
			c.Obs.Counter(obs.MOutcomePrefix + o.String()).Add(int64(n))
		}
	}
	if res.EarlyStopped {
		c.Obs.Counter(obs.MEarlyStops).Add(1)
	}
	// Detection-latency histograms fold in pre-bucketed: LatencyBuckets and
	// the registry histogram share one geometry, so the obs totals equal the
	// per-campaign summaries exactly — including for journal-replayed
	// campaigns, whose cell records carry the same frozen buckets.
	if res.Latency.Unit != "" {
		for o := Outcome(0); o < numOutcomes; o++ {
			lh := res.Latency.ByOutcome[o]
			if lh.N == 0 {
				continue
			}
			c.Obs.Histogram(obs.MDetectLatencyPrefix+res.Latency.Unit+"."+o.String(), LatencyBuckets).
				AddBuckets(lh.Counts, lh.Sum, lh.N)
		}
	}
}

// priorResult answers the campaign from its journaled cell record, if one
// exists: no golden run, no injections. Outcome counters are replayed so
// suite totals reconcile; checkpoint counters are not (no work happened).
func (c Campaign) priorResult() (Result, bool) {
	if c.Prior == nil || c.Prior.Result == nil {
		return Result{}, false
	}
	res := *c.Prior.Result
	c.Obs.Counter(obs.MJournalSkippedCells).Add(1)
	c.observeOutcomes(res)
	if c.Progress != nil && res.Samples > 0 {
		c.Progress(res.Samples)
	}
	return res, true
}

// pendingPlans counts plans not already answered by the journaled prior.
func (c Campaign) pendingPlans(plans []plannedFault) int {
	if c.Prior == nil || len(c.Prior.Plans) == 0 {
		return len(plans)
	}
	n := 0
	for _, p := range plans {
		if _, ok := c.Prior.Plans[p.idx]; !ok {
			n++
		}
	}
	return n
}

// Result aggregates campaign outcomes.
type Result struct {
	// Samples is the number of plans the result aggregates. It equals the
	// configured Campaign.Samples unless CI-width early stopping truncated
	// the campaign, in which case it is the qualifying prefix length.
	Samples  int
	Counts   [numOutcomes]int
	DynSites uint64 // dynamic fault-injection sites in the golden run
	Golden   []uint64
	// Cycles is the golden-run cycle count on the machine cycle model.
	// Only assembly-level campaigns set it; the IR interpreter has no
	// cycle model, so IR campaigns leave it zero.
	Cycles float64
	// EarlyStopped reports that the CI-width rule ended the campaign before
	// the full sample budget.
	EarlyStopped bool `json:",omitempty"`
	// Checkpoint reports the campaign's fast-forwarding activity; zero
	// when checkpointing was disabled.
	Checkpoint CheckpointSummary
	// Pruned reports the static-pruning bookkeeping; zero when pruning was
	// off. Counts answered statically are folded into Counts as Benign (dead,
	// masked) or as their representative's outcome (deduped).
	Pruned PruneSummary
	// Latency holds the campaign's detection-latency histograms: for every
	// executed plan whose fault was injected, the distance from injection to
	// the terminal event, bucketed per outcome class. Units are machine
	// cycles (asm) or retired IR instructions (ir); plans answered
	// statically by pruning never executed and contribute nothing.
	Latency LatencySummary
	// Composed reports the compositional-campaign ledger (sections, boundary
	// classifications, fallbacks, validation); zero when Compose was off.
	// Cache activity is deliberately absent: it describes work avoided by a
	// particular process, not the campaign's outcome, so resumed and
	// cache-warm runs stay byte-identical to cold ones.
	Composed ComposeSummary
}

// Count returns the number of runs with the given outcome.
func (r Result) Count(o Outcome) int { return r.Counts[o] }

// Rate returns the fraction of runs with the given outcome.
func (r Result) Rate(o Outcome) float64 {
	if r.Samples == 0 {
		return 0
	}
	return float64(r.Counts[o]) / float64(r.Samples)
}

// SDCRate returns the silent-data-corruption probability.
func (r Result) SDCRate() float64 { return r.Rate(SDC) }

// CI95 returns the 95% Wilson-score half-width interval of the SDC rate.
func (r Result) CI95() (lo, hi float64) {
	return wilson(float64(r.Counts[SDC]), float64(r.Samples))
}

func wilson(successes, n float64) (lo, hi float64) {
	if n == 0 {
		return 0, 0
	}
	const z = 1.959963984540054
	p := successes / n
	denom := 1 + z*z/n
	center := (p + z*z/(2*n)) / denom
	half := z * math.Sqrt(p*(1-p)/n+z*z/(4*n*n)) / denom
	return math.Max(0, center-half), math.Min(1, center+half)
}

// Coverage computes the paper's SDC-coverage metric:
// (SDC_raw - SDC_prot) / SDC_raw. It is 1 when the protected program shows
// no SDCs and 0 when protection is useless; a raw SDC rate of zero yields
// full coverage by convention.
func Coverage(raw, prot Result) float64 {
	r := raw.SDCRate()
	if r == 0 {
		return 1
	}
	c := (r - prot.SDCRate()) / r
	if c < 0 {
		return 0
	}
	return c
}

// Overhead computes the paper's runtime-overhead metric from golden-run
// cycles: (cycles_prot - cycles_raw) / cycles_raw.
func Overhead(rawCycles, protCycles float64) float64 {
	if rawCycles == 0 {
		return 0
	}
	return (protCycles - rawCycles) / rawCycles
}

// AsmTarget describes one program to inject at assembly level.
type AsmTarget struct {
	Prog    *asm.Program
	MemSize int
	Args    []uint64
	// Setup installs the benchmark's memory image; it runs once per
	// machine instance.
	Setup func(mem MemWriter) error
}

// MemWriter is the data-loading interface shared by the machine and the IR
// interpreter.
type MemWriter interface {
	WriteWordImage(addr, v uint64) error
	SetMemImage(addr uint64, data []byte) error
}

// plannedFault is one sampled fault. idx is its generation index in the
// deterministic plan sequence: the identity used for journal records,
// outcome bookkeeping and early-stop prefixes, stable under the site sort
// the checkpointing path applies.
type plannedFault struct {
	idx   int
	site  uint64
	bit   uint
	extra []uint
}

// asmCampaign is the shared assembly-level campaign engine behind
// RunAsmCampaign and ProfileProneness: golden run, width-aware fault plan,
// snapshot schedule, and the worker factory for runPlans.
type asmCampaign struct {
	c      Campaign
	tgt    AsmTarget
	build  func() (*machine.Machine, error)
	golden machine.Result
	// m0 is the fully-loaded template machine: program decoded, data image
	// installed, fusion tables rebuilt from the golden run's profile.
	// Workers are clones of it — they share the decoded program and image
	// (no per-worker re-decode, re-fuse or image copy) and own all mutable
	// run state. machines collects the clones (factories run inside worker
	// goroutines, hence the mutex) so dispatch-tier counters and fusion-pair
	// tables can be merged after the injection loop.
	m0       *machine.Machine
	mu       sync.Mutex
	machines []*machine.Machine
	// plans is execution-ordered (sorted by site when checkpointing);
	// orig keeps generation order for per-plan attribution by index. Under
	// pruning, plans holds only the dense-indexed class representatives and
	// part maps generation indices back onto them.
	plans []plannedFault
	orig  []plannedFault
	part  *planPartition
	cps   *asmCheckpoints
	ckpt  CheckpointSummary

	restores, coldStarts, skipped atomic.Int64
}

// newAsmCampaign builds the target, performs the golden run (recording
// per-site destination widths, and site locations when recordLocs), samples
// the fault plan, and records the snapshot schedule if any plan still needs
// executing.
func newAsmCampaign(tgt AsmTarget, c Campaign, recordLocs bool) (*asmCampaign, error) {
	build := func() (*machine.Machine, error) {
		m, err := machine.New(tgt.Prog, tgt.MemSize)
		if err != nil {
			return nil, err
		}
		if tgt.Setup != nil {
			if err := tgt.Setup(m); err != nil {
				return nil, err
			}
		}
		return m, nil
	}
	m0, err := build()
	if err != nil {
		return nil, fmt.Errorf("fi: %w", err)
	}
	gsp := c.Obs.Span("golden")
	golden := m0.Run(machine.RunOpts{
		Args:              tgt.Args,
		MaxSteps:          c.MaxSteps,
		Profile:           true,
		RecordSiteBits:    true,
		RecordSiteLocs:    recordLocs,
		RecordSiteStatics: c.Prune != PruneOff,
	})
	gsp.SetAttr("dyn_insts", golden.DynInsts)
	gsp.SetAttr("dyn_sites", golden.DynSites)
	gsp.End()
	if golden.Outcome != machine.OutcomeOK {
		return nil, fmt.Errorf("fi: golden run failed: %v (%s)", golden.Outcome, golden.CrashMsg)
	}
	// The golden run doubles as the fusion profile: rebuild the template's
	// fusion tables from it before any clone is taken, so every worker
	// inherits the profile-guided superinstruction tier. Fused execution is
	// bit-identical to unfused, so campaign results are unaffected.
	m0.FuseProfile(golden.Profile)
	a := &asmCampaign{c: c, tgt: tgt, build: build, golden: golden, m0: m0}
	var fallbacks int
	plans, err := makePlans(c, golden.DynSites, siteWidth(golden.SiteBits, &fallbacks))
	if err != nil {
		return nil, err
	}
	if fallbacks > 0 {
		c.Obs.Counter(obs.MWidthFallbacks).Add(int64(fallbacks))
		if c.Prune != PruneOff {
			// A fallback width means the recorded destination metadata is
			// incomplete; the static classification cannot be trusted for
			// those sites, and an exact-mode campaign must not guess.
			return nil, fmt.Errorf("fi: prune: %d plan draws hit sites with missing/zero recorded width", fallbacks)
		}
	}
	a.plans = shardPlans(plans, c.Shard)
	a.orig = append([]plannedFault(nil), a.plans...)
	if c.Prune != PruneOff {
		psp := c.Obs.Span("prune")
		an := prune.Analyze(tgt.Prog)
		part, err := partitionPlans(c.Prune, a.orig, golden.SiteStatics, an, m0.StaticInstrs())
		psp.End()
		if err != nil {
			return nil, err
		}
		a.part = part
		a.plans = append([]plannedFault(nil), part.exec...)
		// Plans answered statically are complete before any execution:
		// report them upfront and shift later worker progress past them, so
		// the caller still observes a monotone count ending at Samples.
		if answered := len(a.orig) - len(a.plans); answered > 0 && c.Progress != nil {
			orig := c.Progress
			a.c.Progress = func(done int) { orig(done + answered) }
			orig(answered)
		}
	}
	if !c.NoCheckpoint && a.c.pendingPlans(a.plans) > 0 {
		k := c.checkpointInterval(golden.DynSites)
		csp := c.Obs.Span("checkpoint.record")
		a.cps = recordAsmCheckpoints(m0, tgt, c, k, golden.DynSites)
		csp.SetAttr("k", k)
		csp.SetAttr("snapshots", len(a.cps.snaps))
		csp.SetAttr("bytes", a.cps.bytes())
		csp.End()
		sortPlansBySite(a.plans)
		a.ckpt = CheckpointSummary{
			Enabled:       true,
			Interval:      k,
			Snapshots:     len(a.cps.snaps),
			SnapshotBytes: a.cps.bytes(),
		}
	}
	return a, nil
}

func (a *asmCampaign) runOne(m *machine.Machine, p plannedFault) planResult {
	opts := machine.RunOpts{
		Args:     a.tgt.Args,
		MaxSteps: a.c.MaxSteps,
		Fault:    &machine.Fault{Site: p.site, Bit: p.bit, Extra: p.extra},
	}
	if a.cps != nil {
		if i := nearestSnapshot(a.cps.sites, p.site); i >= 0 {
			opts.Resume = a.cps.snaps[i]
			a.restores.Add(1)
			a.skipped.Add(int64(a.cps.snaps[i].DynInsts()))
		} else {
			a.coldStarts.Add(1)
		}
	}
	r := m.Run(opts)
	pr := planResult{o: classifyAsm(r, a.golden.Output)}
	if r.Injected {
		pr.lat, pr.hasLat = r.Cycles-r.FaultCycles, true
	}
	return pr
}

// run executes the plan through runPlans with a per-worker machine. Each
// worker is a clone of the fused template rather than a from-scratch
// build: program decode, block formation, fusion and the data image are
// paid once per campaign instead of once per worker.
func (a *asmCampaign) run() (planOutcomes, error) {
	isp := a.c.Obs.Span("inject")
	isp.SetAttr("plans", len(a.plans))
	po, err := runPlans(a.c, a.plans, func() (func(plannedFault) planResult, error) {
		m := a.m0.Clone()
		a.mu.Lock()
		a.machines = append(a.machines, m)
		a.mu.Unlock()
		return func(p plannedFault) planResult { return a.runOne(m, p) }, nil
	}, nil)
	isp.End()
	a.observeDispatch()
	return po, err
}

// observeDispatch merges the dispatch-tier counters and fusion-pair tables
// of every machine the campaign ran (template plus worker clones) into the
// observability registry. Pair tables go under obs.MFusionPrefix so the
// -dump-fusion report can rank patterns by dynamic executions.
func (a *asmCampaign) observeDispatch() {
	if a.c.Obs == nil {
		return
	}
	a.mu.Lock()
	machines := append([]*machine.Machine{a.m0}, a.machines...)
	a.mu.Unlock()
	var blocks, fused uint64
	for _, m := range machines {
		b, f := m.DispatchStats()
		blocks += b
		fused += f
		for _, p := range m.FusionPairs() {
			if p.Hits > 0 {
				a.c.Obs.Counter(obs.MFusionPrefix + p.Pair).Add(int64(p.Hits))
			}
		}
	}
	a.c.Obs.Counter(obs.MBlocksEntered).Add(int64(blocks))
	a.c.Obs.Counter(obs.MFusedUops).Add(int64(fused))
}

// result assembles the campaign Result from the plan outcomes. Under
// pruning the dense executed outcomes are expanded back onto the full
// generation-ordered plan space first, so Samples and Counts aggregate
// every planned fault exactly as an unpruned campaign's would.
func (a *asmCampaign) result(po planOutcomes) Result {
	samples, counts, early := po.samples, po.counts, po.early
	if a.part != nil {
		n, outcomes := a.expandedOutcomes(po)
		samples, early = n, false
		counts = [numOutcomes]int{}
		for _, o := range outcomes[:n] {
			counts[o]++
		}
	}
	res := Result{
		Samples:      samples,
		Counts:       counts,
		DynSites:     a.golden.DynSites,
		Golden:       a.golden.Output,
		Cycles:       a.golden.Cycles,
		EarlyStopped: early,
		Checkpoint:   a.ckpt,
		// Latency aggregates over the executed prefix po indexes: the
		// generation order for plain campaigns (truncated on early stop),
		// the dense representative set under pruning — expanded outcomes
		// never executed, so they carry no latency.
		Latency: aggregateLatency("cycles", po.samples, po.outcomes, po.lats, po.hasLat),
	}
	if a.part != nil {
		res.Pruned = a.part.summary
	}
	res.Checkpoint.Restores = a.restores.Load()
	res.Checkpoint.ColdStarts = a.coldStarts.Load()
	res.Checkpoint.SkippedInsts = a.skipped.Load()
	return res
}

// RunAsmCampaign executes a fault-injection campaign against the machine
// model. The fault plan is pre-generated from the seed, so results are
// deterministic and independent of worker count.
func RunAsmCampaign(tgt AsmTarget, c Campaign) (Result, error) {
	if err := c.Check(); err != nil {
		return Result{}, err
	}
	if res, ok := c.priorResult(); ok {
		return res, nil
	}
	if c.Compose != ComposeOff {
		return runComposedAsmCampaign(tgt, c)
	}
	a, err := newAsmCampaign(tgt, c, false)
	if err != nil {
		return Result{}, err
	}
	po, err := a.run()
	if err != nil {
		return Result{}, err
	}
	res := a.result(po)
	c.observe(res)
	c.journalCell(res)
	if err := c.journalErr(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// IRTarget describes one module to inject at IR level.
type IRTarget struct {
	Mod     *ir.Module
	MemSize int
	Args    []uint64
	Setup   func(mem MemWriter) error
}

// RunIRCampaign executes an LLFI-style campaign against the IR interpreter.
// IR sites are value-producing instructions; alloca addresses and call
// results are excluded (they are sphere inputs for EDDI, matching how the
// paper's IR-level coverage expectations are formed).
func RunIRCampaign(tgt IRTarget, c Campaign) (Result, error) {
	if err := c.CheckIR(); err != nil {
		return Result{}, err
	}
	if res, ok := c.priorResult(); ok {
		return res, nil
	}
	build := func() (*ir.Interp, error) {
		ip, err := ir.NewInterp(tgt.Mod, tgt.MemSize)
		if err != nil {
			return nil, err
		}
		if tgt.Setup != nil {
			if err := tgt.Setup(ip); err != nil {
				return nil, err
			}
		}
		return ip, nil
	}
	ip0, err := build()
	if err != nil {
		return Result{}, fmt.Errorf("fi: %w", err)
	}
	gsp := c.Obs.Span("golden")
	golden := ip0.Run(ir.RunOpts{Args: tgt.Args, MaxSteps: c.MaxSteps})
	gsp.SetAttr("dyn_sites", golden.Sites)
	gsp.End()
	if golden.Outcome != ir.OutcomeOK {
		return Result{}, fmt.Errorf("fi: golden IR run failed: %v (%s)", golden.Outcome, golden.CrashMsg)
	}
	res := Result{DynSites: golden.Sites, Golden: golden.Output}
	// Every IR site produces a 64-bit value, so the plan needs no per-site
	// width map (nil samples bits uniformly in [0,64)).
	plans, err := makePlans(c, golden.Sites, nil)
	if err != nil {
		return Result{}, err
	}
	plans = shardPlans(plans, c.Shard)

	var (
		cps                           *irCheckpoints
		restores, coldStarts, skipped atomic.Int64
	)
	if !c.NoCheckpoint && c.pendingPlans(plans) > 0 {
		k := c.checkpointInterval(golden.Sites)
		csp := c.Obs.Span("checkpoint.record")
		cps = recordIRCheckpoints(ip0, tgt, c, k)
		csp.SetAttr("k", k)
		csp.SetAttr("snapshots", len(cps.snaps))
		csp.SetAttr("bytes", cps.bytes())
		csp.End()
		sortPlansBySite(plans)
		res.Checkpoint = CheckpointSummary{
			Enabled:       true,
			Interval:      k,
			Snapshots:     len(cps.snaps),
			SnapshotBytes: cps.bytes(),
		}
	}
	isp := c.Obs.Span("inject")
	isp.SetAttr("plans", len(plans))
	po, err := runPlans(c, plans, func() (func(plannedFault) planResult, error) {
		// Workers clone the fully-loaded template: the decoded module and
		// pristine memory image are shared, so per-worker setup skips the
		// verify/decode passes and the data-image copy.
		ip := ip0.Clone()
		return func(p plannedFault) planResult {
			opts := ir.RunOpts{
				Args:     tgt.Args,
				MaxSteps: c.MaxSteps,
				Fault:    &ir.Fault{Site: p.site, Bit: p.bit},
			}
			if cps != nil {
				if i := nearestSnapshot(cps.sites, p.site); i >= 0 {
					opts.Resume = cps.snaps[i]
					restores.Add(1)
					skipped.Add(int64(cps.snaps[i].Steps()))
				} else {
					coldStarts.Add(1)
				}
			}
			r := ip.Run(opts)
			pr := planResult{o: classifyIR(r, golden.Output)}
			if r.Injected {
				pr.lat, pr.hasLat = float64(r.Steps-r.FaultStep), true
			}
			return pr
		}, nil
	}, nil)
	isp.End()
	if err != nil {
		return Result{}, err
	}
	res.Samples = po.samples
	res.Counts = po.counts
	res.EarlyStopped = po.early
	res.Latency = aggregateLatency("insts", po.samples, po.outcomes, po.lats, po.hasLat)
	res.Checkpoint.Restores = restores.Load()
	res.Checkpoint.ColdStarts = coldStarts.Load()
	res.Checkpoint.SkippedInsts = skipped.Load()
	c.observe(res)
	c.journalCell(res)
	if err := c.journalErr(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// siteWidth adapts a golden run's per-site destination widths (from
// machine.RunOpts.RecordSiteBits) into makePlans' width lookup. Zero or
// missing widths fall back to 64; when that happens the fallback is no
// longer silent — each fallback draw increments *fallbacks (when non-nil)
// so callers can surface it (fi.width_fallbacks) or refuse to proceed.
func siteWidth(siteBits []uint16, fallbacks *int) func(uint64) uint {
	if len(siteBits) == 0 {
		return nil
	}
	return func(site uint64) uint {
		if site < uint64(len(siteBits)) {
			if b := siteBits[site]; b > 0 {
				return uint(b)
			}
		}
		if fallbacks != nil {
			*fallbacks++
		}
		return 64
	}
}

// makePlans samples the campaign's deterministic fault plan: a uniformly
// random site, then a uniformly random bit of that site's actual
// destination width (width nil means every site is 64 bits wide, the IR
// case). Sampling in [0, width) rather than a flat [0, 64) matters in both
// directions: narrow destinations (8/16/32-bit moves, the 4 condition
// flags) would otherwise draw bit numbers the injector must wrap or mask,
// and SIMD destinations wider than 64 bits (multi-lane stores up to 512
// bits) would never receive faults in their upper lanes at all.
//
// A siteless golden run returns ErrNoSites rather than panicking inside
// the RNG draw.
func makePlans(c Campaign, sites uint64, width func(uint64) uint) ([]plannedFault, error) {
	if sites == 0 {
		return nil, ErrNoSites
	}
	rng := rand.New(rand.NewSource(c.Seed))
	plans := make([]plannedFault, c.Samples)
	for i := range plans {
		site := uint64(rng.Int63n(int64(sites)))
		w := uint(64)
		if width != nil {
			w = width(site)
		}
		p := plannedFault{
			idx:  i,
			site: site,
			bit:  uint(rng.Intn(int(w))),
		}
		bits := c.BitsPerFault
		if bits > int(w) {
			// A destination has only w distinct bits; flipping more is
			// impossible and resampling for them would never terminate.
			bits = int(w)
		}
		for extra := 1; extra < bits; extra++ {
			// Resample until the bit is distinct from every bit already
			// chosen for this fault, not just the primary one: two equal
			// extras would XOR-cancel and silently weaken the planned
			// multi-bit upset.
			b := uint(rng.Intn(int(w)))
			for duplicateBit(p, b) {
				b = uint(rng.Intn(int(w)))
			}
			p.extra = append(p.extra, b)
		}
		plans[i] = p
	}
	return plans, nil
}

func duplicateBit(p plannedFault, b uint) bool {
	if b == p.bit {
		return true
	}
	for _, e := range p.extra {
		if e == b {
			return true
		}
	}
	return false
}

func classifyAsm(r machine.Result, golden []uint64) Outcome {
	switch r.Outcome {
	case machine.OutcomeDetected:
		return Detected
	case machine.OutcomeCrash:
		return Crash
	case machine.OutcomeHang:
		return Hang
	}
	if equalOutput(r.Output, golden) {
		return Benign
	}
	return SDC
}

func classifyIR(r ir.RunResult, golden []uint64) Outcome {
	switch r.Outcome {
	case ir.OutcomeDetected:
		return Detected
	case ir.OutcomeCrash:
		return Crash
	case ir.OutcomeHang:
		return Hang
	}
	if equalOutput(r.Output, golden) {
		return Benign
	}
	return SDC
}

func equalOutput(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FindExample scans the campaign's deterministic fault plan for the first
// fault whose outcome matches want, returning the fault so callers can
// replay it (e.g. with machine tracing enabled for diagnosis). ok is false
// if no sampled fault produces the outcome.
func FindExample(tgt AsmTarget, c Campaign, want Outcome) (machine.Fault, bool, error) {
	m, err := machine.New(tgt.Prog, tgt.MemSize)
	if err != nil {
		return machine.Fault{}, false, err
	}
	if tgt.Setup != nil {
		if err := tgt.Setup(m); err != nil {
			return machine.Fault{}, false, err
		}
	}
	golden := m.Run(machine.RunOpts{Args: tgt.Args, MaxSteps: c.MaxSteps, RecordSiteBits: true})
	if golden.Outcome != machine.OutcomeOK {
		return machine.Fault{}, false, fmt.Errorf("fi: golden run failed: %v", golden.Outcome)
	}
	plans, err := makePlans(c, golden.DynSites, siteWidth(golden.SiteBits, nil))
	if err != nil {
		return machine.Fault{}, false, err
	}
	for _, p := range plans {
		f := machine.Fault{Site: p.site, Bit: p.bit, Extra: p.extra}
		r := m.Run(machine.RunOpts{Args: tgt.Args, MaxSteps: c.MaxSteps, Fault: &f})
		if classifyAsm(r, golden.Output) == want {
			return f, true, nil
		}
	}
	return machine.Fault{}, false, nil
}
