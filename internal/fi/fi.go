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
	"slices"

	"ferrum/internal/asm"
	"ferrum/internal/compose"
	"ferrum/internal/ir"
	"ferrum/internal/machine"
	"ferrum/internal/obs"
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
	// sampled destination's width). Assembly-level campaigns only: CheckIR
	// refuses more than one.
	BitsPerFault int
	// Prune, if not PruneOff, classifies each sampled (site, bit) pair
	// against the static liveness/masking analysis (internal/prune) and
	// executes only the plans the analysis cannot answer: dead and masked
	// plans are Benign by construction, and under PruneFull one
	// representative stands in for every plan of the same
	// (static instruction, bit) class. Result.Counts still aggregates all
	// Samples plans. Assembly-level campaigns only; one of the three plan
	// stages, with Compose and Shard (Check allows at most one).
	Prune PruneMode
	// Compose, if not ComposeOff, runs the campaign compositionally:
	// the program is partitioned into sections at the golden checkpoint
	// boundaries, the sample budget is stratified across sections by site
	// count, and each plan runs only to its section boundary where its
	// propagation descriptor is classified against the downstream live-in
	// state — with an end-to-end fallback whenever the descriptor is
	// ambiguous. ComposeValidate additionally runs the monolithic campaign
	// and reports the rate agreement. Assembly-level campaigns only; a plan
	// stage, like Prune and Shard, and it needs checkpointing.
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
	// it. A plan stage, like Prune and Compose.
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
	// every forces the snapshot spacing K (dynamic sites between
	// checkpoints) for this package's tests. Every other campaign takes
	// the schedule its golden run thins, densely for a converging asm
	// campaign and sparsely for compose and IR (goldenCheckpoints).
	every uint64
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
	// Samples is the number of plans the result aggregates: the configured
	// Campaign.Samples, or one shard's share of it.
	Samples  int
	Counts   [numOutcomes]int
	DynSites uint64 // dynamic fault-injection sites in the golden run
	Golden   []uint64
	// Cycles is the golden-run cycle count on the machine cycle model.
	// Only assembly-level campaigns set it; the IR interpreter has no
	// cycle model, so IR campaigns leave it zero.
	Cycles float64
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
	// Keys, when set, keeps the program's compose key parts across
	// campaigns (compose.Memo); it must belong to this program as it is
	// now. Nil keys each composed campaign afresh.
	Keys *compose.Memo
	// Sites, when non-zero, is the golden run's expected dynamic site
	// count, such as an earlier campaign's Result.DynSites on the same
	// program, input and memory size. It sizes the golden run's site table
	// and starts an auto checkpoint schedule at the K it implies
	// (hintedGolden). A wrong count costs a second golden run, never a
	// different Result.
	Sites uint64
}

// MemWriter is the data-loading interface shared by the machine and the IR
// interpreter.
type MemWriter interface {
	WriteWordImage(addr, v uint64) error
	SetMemImage(addr uint64, data []byte) error
}

// RunAsmCampaign executes a fault-injection campaign against the machine
// model. The fault plan is pre-generated from the seed, so results are
// deterministic and independent of worker count.
func RunAsmCampaign(tgt AsmTarget, c Campaign) (Result, error) {
	f := &campaign{c: c, build: func() (engine, error) { return newAsmEngine(tgt, c.MaxSteps) }}
	return f.run()
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
	f := &campaign{c: c, irLevel: true, build: func() (engine, error) { return newIREngine(tgt, c.MaxSteps) }}
	return f.run()
}

// siteWidth adapts a golden run's per-site static ids (from
// machine.RunOpts.RecordSiteStatics) into makePlans' width lookup: each
// site's width is machine.DestBits of its static destination. Zero or
// missing widths fall back to 64; when that happens the fallback is no
// longer silent — each fallback draw increments *fallbacks (when non-nil)
// so callers can surface it (fi.width_fallbacks) or refuse to proceed.
func siteWidth(statics []int32, instrs []machine.StaticInstr, fallbacks *int) func(uint64) uint {
	if len(statics) == 0 {
		return nil
	}
	return func(site uint64) uint {
		if site < uint64(len(statics)) {
			if b := machine.DestBits(instrs[statics[site]].Dest); b > 0 {
				return uint(b)
			}
		}
		if fallbacks != nil {
			*fallbacks++
		}
		return 64
	}
}

// classify names a run's outcome from its engine's terminal class (see
// asmClass, irClass): a run that completed is Benign or SDC by its output.
func classify(o Outcome, out, golden []uint64) Outcome {
	if o == Benign && !slices.Equal(out, golden) {
		return SDC
	}
	return o
}

// FindExample scans the campaign's deterministic fault plan for the first
// fault whose outcome matches want, returning the fault so callers can
// replay it (e.g. with machine tracing enabled for diagnosis). ok is false
// if no sampled fault produces the outcome.
func FindExample(tgt AsmTarget, c Campaign, want Outcome) (machine.Fault, bool, error) {
	e, err := newAsmEngine(tgt, c.MaxSteps)
	if err != nil {
		return machine.Fault{}, false, err
	}
	defer e.release()
	c.NoCheckpoint = true // every plan below cold-starts
	g, err := e.golden(c)
	if err != nil {
		return machine.Fault{}, false, err
	}
	plans, err := makePlans(c, g.sites, g.width(nil))
	if err != nil {
		return machine.Fault{}, false, err
	}
	w := &asmWorker{e: e, m: e.m0}
	for _, p := range plans {
		if w.run(p).Outcome == want {
			return machine.Fault{Site: p.site, Bit: p.bit, Extra: p.extra}, true, nil
		}
	}
	return machine.Fault{}, false, nil
}
