package fi

import (
	"fmt"
	"math/rand"

	"ferrum/internal/obs"
	"ferrum/internal/prune"
)

// campaign is one run of the campaign pipeline every runner shares —
// RunAsmCampaign, RunIRCampaign, compose and ProfileProneness: Check, the
// journaled-prior shortcut, build and the golden run (which also takes the
// checkpoint schedule), the plan draw, the run mode's plan stage, runPlans,
// Result assembly, and the observe/journal tail. The engine seam
// (engine.go) supplies the level-specific work.
type campaign struct {
	c       Campaign
	irLevel bool
	build   func() (engine, error)
	// profile marks a ProfileProneness run: its Result is no campaign
	// result, so it writes no journal cell record.
	profile bool

	eng   engine
	g     goldenRun
	sched *schedule // nil: every plan cold-starts
	// orig is the plan in generation order (after sharding); plans is the
	// execution list — the dense class representatives under pruning,
	// sorted by site when checkpointing.
	orig, plans []plannedFault
	part        *planPartition
	comp        *composition
	// recs holds every executed plan's record by plan index: the
	// generation order, or the dense representative index under pruning.
	recs []PlanRecord
}

// plannedFault is one sampled fault. idx is its generation index in the
// deterministic plan sequence: the identity used for journal records and
// outcome bookkeeping, stable under the site sort the checkpointing path
// applies.
type plannedFault struct {
	idx   int
	site  uint64
	bit   uint
	extra []uint
}

func (f *campaign) run() (Result, error) {
	c := f.c
	if err := c.check(f.irLevel); err != nil {
		return Result{}, err
	}
	if res, ok := c.priorResult(); ok {
		return res, nil
	}

	var err error
	if f.eng, err = f.build(); err != nil {
		return Result{}, err
	}
	defer f.eng.release()
	gsp := c.Obs.Span("golden")
	f.g, err = f.eng.golden(c)
	gsp.SetAttr("dyn_insts", f.g.insts)
	gsp.SetAttr("dyn_sites", f.g.sites)
	gsp.SetAttr("hint_sites", f.g.hint)
	gsp.SetAttr("start_k", f.g.startK)
	if s := f.g.sched; s != nil {
		s.setAttrs(gsp)
	}
	gsp.End()
	if f.g.reran {
		c.Obs.Counter(obs.MCkptHintReruns).Add(1)
	}
	if err != nil {
		return Result{}, err
	}
	if f.g.sites == 0 {
		return Result{}, ErrNoSites
	}

	// The plan draw and the run mode's stage. Check keeps the stages
	// mutually exclusive: sharding keeps a residue class of the uniform
	// draw, pruning answers part of it statically, and compose replaces it
	// with a per-section stratified draw.
	var cached map[int]PlanRecord
	if c.Compose != ComposeOff {
		f.comp = newComposition(f)
		cached = f.comp.serve()
	} else {
		if err := f.drawUniform(); err != nil {
			return Result{}, err
		}
		f.orig = shardPlans(f.orig, c.Shard)
		f.plans = f.orig
		if c.Prune != PruneOff {
			if err := f.prune(); err != nil {
				return Result{}, err
			}
		}
	}

	f.eng.planned()

	// The golden run took the checkpoints. Compose cut its sections at them;
	// otherwise they serve only when some plan still has to execute.
	if f.comp != nil || c.pendingPlans(f.plans) > 0 {
		f.sched = f.g.sched
	}
	if f.sched != nil {
		f.plans = plansBySite(f.plans)
	}

	isp := c.Obs.Span("inject")
	isp.SetAttr("plans", len(f.plans))
	// f.c, not c: the prune stage shifts Progress past its answered plans.
	f.recs, err = runPlans(f.c, f.plans, f.newWorker, cached)
	isp.End()
	f.eng.observe(c.Obs)
	if f.sched != nil {
		// A counter only, like ckpt.converged: Result.Checkpoint, which
		// cell records journal, keeps its fields.
		c.Obs.Counter(obs.MCkptForkResumes).Add(f.sched.forks.Load())
	}
	if err != nil {
		return Result{}, err
	}

	res, err := f.result()
	if err != nil {
		return Result{}, err
	}
	c.observe(res)
	if !f.profile {
		c.journalCell(res)
	}
	if err := c.journalErr(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// drawUniform draws the campaign's uniform plan.
func (f *campaign) drawUniform() error {
	var fallbacks int
	var width func(uint64) uint
	if f.g.width != nil {
		width = f.g.width(&fallbacks)
	}
	plans, err := makePlans(f.c, f.g.sites, width)
	if err != nil {
		return err
	}
	if fallbacks > 0 {
		f.c.Obs.Counter(obs.MWidthFallbacks).Add(int64(fallbacks))
		if f.c.Prune != PruneOff {
			// A fallback width means the recorded destination metadata is
			// incomplete; the static classification cannot be trusted for
			// those sites, and an exact-mode campaign must not guess.
			return fmt.Errorf("fi: prune: %d plan draws hit sites with missing/zero recorded width", fallbacks)
		}
	}
	f.orig = plans
	return nil
}

// prune is the pruning stage: it partitions the plan against the static
// analysis and leaves only the class representatives to execute.
func (f *campaign) prune() error {
	e := f.eng.(*asmEngine)
	psp := f.c.Obs.Span("prune")
	an := prune.Analyze(e.tgt.Prog)
	part, err := partitionPlans(f.c.Prune, f.orig, e.res.SiteStatics, an, e.instrs)
	psp.End()
	if err != nil {
		return err
	}
	f.part, f.plans = part, part.exec
	// Plans answered statically are complete before any execution: report
	// them upfront and shift later worker progress past them, so the caller
	// still observes a monotone count ending at Samples.
	if answered := len(f.orig) - len(f.plans); answered > 0 && f.c.Progress != nil {
		orig := f.c.Progress
		f.c.Progress = func(done int) { orig(done + answered) }
		orig(answered)
	}
	return nil
}

// newWorker is runPlans' worker factory: an engine clone that resumes
// each plan from the checkpoint schedule, and counts there where it
// started. Under compose the plan then runs to its section's end.
func (f *campaign) newWorker() batchRunner {
	w := f.eng.clone(f.sched)
	if f.comp != nil {
		w = f.comp.worker(w)
	}
	return func(batch []plannedFault, done func(plannedFault, PlanRecord)) {
		w.newBatch()
		for _, p := range batch {
			done(p, w.run(p))
		}
	}
}

// result assembles the campaign Result from the plan outcomes; pruning and
// compose then add their own summaries.
func (f *campaign) result() (Result, error) {
	res := Result{
		Samples:  len(f.recs),
		DynSites: f.g.sites,
		Golden:   f.g.output,
		Cycles:   f.g.cycles,
		// Latency aggregates over the executed plans: the generation order
		// for plain campaigns, the dense representative set under pruning —
		// expanded outcomes never executed, so they carry no latency.
		Latency: aggregateLatency(f.eng.unit(), f.recs),
	}
	for _, r := range f.recs {
		res.Counts[r.Outcome]++
	}
	if s := f.sched; s != nil {
		res.Checkpoint = CheckpointSummary{
			Enabled:       true,
			Interval:      s.k,
			Snapshots:     len(s.sites),
			SnapshotBytes: s.bytes,
			Restores:      s.restores.Load(),
			ColdStarts:    s.coldStarts.Load(),
			SkippedInsts:  s.skipped.Load(),
		}
	}
	if f.part != nil {
		// The dense executed outcomes expand back onto the full plan space,
		// so Samples and Counts aggregate every planned fault exactly as an
		// unpruned campaign's would.
		outcomes := f.expandedOutcomes()
		res.Samples, res.Counts = len(outcomes), [numOutcomes]int{}
		for _, o := range outcomes {
			res.Counts[o]++
		}
		res.Pruned = f.part.summary
	}
	if f.comp != nil {
		if err := f.comp.finish(&res); err != nil {
			return Result{}, err
		}
	}
	return res, nil
}

// makePlans samples the campaign's deterministic uniform fault plan.
// A siteless golden run returns ErrNoSites rather than panicking inside
// the RNG draw.
func makePlans(c Campaign, sites uint64, width func(uint64) uint) ([]plannedFault, error) {
	if sites == 0 {
		return nil, ErrNoSites
	}
	rng := rand.New(rand.NewSource(c.Seed))
	plans := make([]plannedFault, c.Samples)
	for i := range plans {
		plans[i] = drawFault(rng, 0, sites, width, c.BitsPerFault)
		plans[i].idx = i
	}
	return plans, nil
}

// drawFault samples one fault: a site uniform in [lo, hi), then a
// uniformly random bit of that site's actual destination width (width nil
// means every site is 64 bits wide, the IR case), then bits-1 extra bits
// distinct from each other and from the first. Sampling in [0, width)
// rather than a flat [0, 64) matters in both directions: narrow
// destinations (8/16/32-bit moves, the 4 condition flags) would otherwise
// draw bit numbers the injector must wrap or mask, and SIMD destinations
// wider than 64 bits (multi-lane stores up to 512 bits) would never
// receive faults in their upper lanes at all.
func drawFault(rng *rand.Rand, lo, hi uint64, width func(uint64) uint, bits int) plannedFault {
	site := lo + uint64(rng.Int63n(int64(hi-lo)))
	w := uint(64)
	if width != nil {
		w = width(site)
	}
	p := plannedFault{site: site, bit: uint(rng.Intn(int(w)))}
	if bits > int(w) {
		// A destination has only w distinct bits; flipping more is
		// impossible and resampling for them would never terminate.
		bits = int(w)
	}
	for extra := 1; extra < bits; extra++ {
		// Resample until the bit is distinct from every bit already chosen
		// for this fault, not just the primary one: two equal extras would
		// XOR-cancel and silently weaken the planned multi-bit upset.
		b := uint(rng.Intn(int(w)))
		for duplicateBit(p, b) {
			b = uint(rng.Intn(int(w)))
		}
		p.extra = append(p.extra, b)
	}
	return p
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
