package fi

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ferrum/internal/compose"
	"ferrum/internal/liveness"
	"ferrum/internal/machine"
	"ferrum/internal/obs"
)

// Compositional campaigns (the FastFlip half of ROADMAP item 1): the golden
// checkpoint schedule partitions the program into sections, the sample
// budget is stratified across sections proportionally to their site counts,
// and each plan runs only from its section's entry snapshot to the section
// boundary. A plan that terminates inside its section is classified as
// usual; one that reaches the boundary is classified by diffing its state
// against the golden checkpoint — an error confined to provably-dead state
// composes to Benign (clean output prefix) or SDC (corrupt prefix: the
// downstream appends the golden suffix to both, so the outputs stay
// different and nothing is left to detect it), and anything ambiguous falls
// back to an end-to-end continuation run. Per-section propagation tables
// are cached under a section content fingerprint, so re-running after an
// edit re-injects only the sections whose fingerprint changed.

// ComposeMode selects whether and how a campaign runs compositionally.
type ComposeMode uint8

const (
	// ComposeOff runs the monolithic campaign (the default).
	ComposeOff ComposeMode = iota
	// ComposeOn runs the campaign compositionally.
	ComposeOn
	// ComposeValidate runs compositionally AND monolithically, reporting the
	// SDC/detection rate agreement within the Wilson-interval tolerance in
	// Result.Composed.Validation.
	ComposeValidate
)

// String names the mode.
func (m ComposeMode) String() string {
	switch m {
	case ComposeOff:
		return "off"
	case ComposeOn:
		return "on"
	case ComposeValidate:
		return "validate"
	}
	return fmt.Sprintf("compose?%d", m)
}

// ParseComposeMode parses a -compose flag value.
func ParseComposeMode(s string) (ComposeMode, error) {
	switch s {
	case "", "off":
		return ComposeOff, nil
	case "on":
		return ComposeOn, nil
	case "validate":
		return ComposeValidate, nil
	}
	return ComposeOff, fmt.Errorf("fi: unknown compose mode %q (off|on|validate)", s)
}

// Set parses a -compose flag value into m, making *ComposeMode a flag.Value.
func (m *ComposeMode) Set(s string) (err error) {
	*m, err = ParseComposeMode(s)
	return err
}

// SectionRow is one section's line in the composed ledger.
type SectionRow struct {
	Start, End  uint64 // dynamic site range [Start, End)
	Fingerprint string // section content fingerprint (hex), the cache key
	Plans       int    // stratified sample budget allocated to this section
	Fallbacks   int    // plans that ran end-to-end
	Counts      [numOutcomes]int
}

// ComposeValidation reports the composed-vs-monolithic rate agreement of a
// ComposeValidate campaign. Tolerances are the sum of both estimates' 95%
// Wilson half-widths: two rates measuring the same underlying probability
// from independent samples should differ by less than that.
type ComposeValidation struct {
	MonoSamples  int
	SDC          float64 // composed SDC rate
	MonoSDC      float64
	SDCTol       float64
	Detected     float64 // composed detection rate
	MonoDetected float64
	DetectedTol  float64
	OK           bool
}

// ComposeSummary reports a composed campaign's bookkeeping. The identity
// Composed == Sections + Fallbacks always holds (the analogue of
// PruneSummary's ledger). Cache activity is reported through the obs
// counters only — it is process-local, not a property of the campaign.
type ComposeSummary struct {
	Enabled  bool   `json:",omitempty"`
	Mode     string `json:",omitempty"`
	Interval uint64 `json:",omitempty"` // effective checkpoint spacing K
	// Composed is the total plan count; Sections of them were answered by
	// section-local measurement plus boundary composition, Fallbacks ran
	// end-to-end because their boundary descriptor was ambiguous.
	Composed   int                `json:",omitempty"`
	Sections   int                `json:",omitempty"`
	Fallbacks  int                `json:",omitempty"`
	Rows       []SectionRow       `json:",omitempty"`
	Validation *ComposeValidation `json:",omitempty"`
}

// section is one checkpoint-delimited slice of the golden execution.
type section struct {
	start, end uint64 // dynamic site range [start, end)
	// entry is the golden snapshot at start (nil: run from program start),
	// the snapshot the flow's resume lookup picks for every plan in the
	// section; exit is the golden snapshot at end (nil: terminal section,
	// runs to the program's end with no boundary stop).
	entry, exit *machine.Snapshot
	base, n     int   // plan index range [base, base+n)
	seed        int64 // section-local plan RNG seed
	key         uint64
	exitCycles  float64 // golden cycle clock at the exit boundary
	deadR       liveness.RegSet
	deadF       liveness.FlagSet
	// current marks a section the cache served whole from a table stored
	// under the current global digest: put would store that table again.
	current bool
}

// planMeta is the per-plan descriptor metadata a fresh (or cache-served)
// plan leaves behind for rebuilding the section's propagation table.
// Workers write disjoint indices; the runPlans WaitGroup publishes them.
type planMeta struct {
	set      bool
	class    compose.Class
	boundary bool    // resolved at the section boundary
	localLat float64 // injection → boundary distance (boundary plans only)
	outDig   uint64  // faulty output digest (ClassOutput plans only)
}

// buildSections derives the section partition from the recorded snapshot
// schedule. Empty site ranges (a snapshot at site 0, or two snapshots at
// the same count) are dropped; the terminal section always runs to program
// end.
func buildSections(snaps []*machine.Snapshot, dynSites uint64) []section {
	var secs []section
	var prev uint64
	var prevSnap *machine.Snapshot
	for _, s := range snaps {
		if s.Sites() > prev {
			secs = append(secs, section{start: prev, end: s.Sites(), entry: prevSnap, exit: s})
		}
		prev, prevSnap = s.Sites(), s
	}
	if dynSites > prev {
		secs = append(secs, section{start: prev, end: dynSites, entry: prevSnap})
	}
	return secs
}

func ciHalf(k, n int) float64 {
	lo, hi := wilson(float64(k), float64(n))
	return (hi - lo) / 2
}

// composition is a composed campaign's stage state: the sections, their
// keys, and the per-plan descriptor metadata the cache tables are rebuilt
// from. Plans, workers, resume accounting and the Result come from the
// shared campaign flow.
type composition struct {
	f    *campaign
	e    *asmEngine
	secs []section
	// globalDig pins the downstream context only ClassGlobal cache entries
	// depend on; outDig is the golden output digest.
	globalDig, outDig uint64
	metas             []planMeta
}

// newComposition is compose's plan stage in place of the uniform draw: it
// cuts the golden run's checkpoint schedule into sections, keys each
// section and draws its stratified plan slice.
//
// The golden run is the section scaffold: its snapshots delimit sections
// and its function spans pin each section's fingerprint to the code that
// actually executed inside it (including zero-site functions, which a
// site-range mapping alone would miss). Fallback continuations end at the
// first later section exit their state rejoins.
func newComposition(f *campaign) *composition {
	c, g := f.c, f.g
	e := f.eng.(*asmEngine)
	var widthFallbacks int
	width := g.width(&widthFallbacks) // taken before planned drops the site table
	k := g.sched.k
	secs := buildSections(e.sched.Checkpoints, g.sites)

	// Whole-program and per-section fingerprints. The section key pins
	// everything that determines the section's propagation table: the data
	// image and arguments, the site range and schedule spacing, the golden
	// entry and exit states, the code executed inside, and the plan sequence
	// parameters. The global digest additionally pins the downstream context
	// that only ClassGlobal cache entries depend on.
	prog, args := e.tgt.Prog, e.tgt.Args
	imageDig := e.m0.ImageDigest()
	argsDig := compose.Mix(append([]uint64{uint64(len(args))}, args...)...)
	// The key parts that depend on the program alone are memoised in the
	// target's Memo, or for this campaign only when it has none: a program
	// without one may be edited in place between campaigns.
	keys := compose.NewKeyer(prog, e.tgt.Keys)
	allFns := make([]string, len(prog.Funcs))
	for i, fn := range prog.Funcs {
		allFns[i] = fn.Name
	}
	progDig := keys.CodeDigest(allFns)
	cs := &composition{f: f, e: e, secs: secs, outDig: compose.OutputDigest(g.output)}
	cs.globalDig = compose.Mix(progDig, cs.outDig, g.sites,
		math.Float64bits(g.cycles), imageDig, argsDig, c.MaxSteps, uint64(c.BitsPerFault))

	weights := make([]uint64, len(secs))
	for i := range secs {
		weights[i] = secs[i].end - secs[i].start
	}
	budgets := compose.Alloc(c.Samples, weights)
	plans := make([]plannedFault, 0, c.Samples)
	// A section's entry snapshot is usually the previous section's exit.
	var prevExit *machine.Snapshot
	var prevExitDig uint64
	// One generator, reseeded per section: seeding resets it completely.
	rng := rand.New(rand.NewSource(0))
	for i := range secs {
		sec := &secs[i]
		sec.base, sec.n = len(plans), budgets[i]
		// A section's plan sequence is a pure function of its identity, not
		// of its ordinal or its neighbours.
		sec.seed = compose.SectionSeed(c.Seed, sec.start, sec.end)
		rng.Seed(sec.seed)
		for range sec.n {
			p := drawFault(rng, sec.start, sec.end, width, c.BitsPerFault)
			p.idx = len(plans)
			plans = append(plans, p)
		}

		entryDig := uint64(0)
		switch {
		case sec.entry == nil:
		case sec.entry == prevExit:
			entryDig = prevExitDig
		default:
			entryDig = sec.entry.Digest()
		}
		var exitDig uint64
		if sec.exit != nil {
			exitDig = sec.exit.Digest()
			prevExit, prevExitDig = sec.exit, exitDig
			sec.exitCycles = sec.exit.CyclesNow()
			if fn, idx, ok := e.m0.LocOf(sec.exit.PC()); ok {
				sec.deadR, sec.deadF = keys.DeadSets(fn, idx)
			}
		} else {
			// The terminal section's "exit state" is the golden program end.
			exitDig = compose.Mix(cs.outDig, g.sites, math.Float64bits(g.cycles))
		}
		secDig := keys.CodeDigest(compose.FnsInRange(e.sched.End.FnSpans, sec.start, sec.end))
		sec.key = compose.Mix(imageDig, argsDig, sec.start, sec.end, k,
			entryDig, exitDig, secDig, uint64(sec.seed), uint64(sec.n),
			uint64(c.BitsPerFault), c.MaxSteps)
	}
	if widthFallbacks > 0 {
		c.Obs.Counter(obs.MWidthFallbacks).Add(int64(widthFallbacks))
	}
	f.orig, f.plans = plans, plans
	cs.metas = make([]planMeta, len(plans))
	return cs
}

// serve answers plans from cached section tables. A key hit serves every
// plan whose validity class allows it: local and output-class plans on the
// key alone, global-class plans only under an unchanged whole-program
// digest — a partial hit re-executes just the stale global plans.
func (cs *composition) serve() map[int]PlanRecord {
	cache := cs.f.c.SectionCache
	if cache == nil {
		return nil
	}
	cached := map[int]PlanRecord{}
	for i := range cs.secs {
		sec := &cs.secs[i]
		if sec.n == 0 {
			continue
		}
		t := cache.Get(sec.key)
		if t == nil {
			continue
		}
		if len(t.Plans) != sec.n || !tableMatchesPlans(t, cs.f.orig[sec.base:sec.base+sec.n]) {
			// A fingerprint collision; vanishingly unlikely, but refuse
			// to serve results for different plans.
			continue
		}
		served := 0
		for j := 0; j < sec.n; j++ {
			cp := t.Plans[j]
			if cp.Class == compose.ClassGlobal && t.GlobalDigest != cs.globalDig {
				continue
			}
			idx := sec.base + j
			r := PlanRecord{Outcome: Outcome(cp.Outcome), Fallback: cp.Fallback}
			if cp.Class == compose.ClassOutput {
				// Early program exit inside the section: the stored
				// faulty-output digest reclassifies against the CURRENT
				// golden output, so the entry survives golden changes.
				if cp.OutDigest == cs.outDig {
					r.Outcome = Benign
				} else {
					r.Outcome = SDC
				}
			}
			if cp.HasLat {
				r.Lat, r.HasLat = cp.Lat, true
				if cp.Boundary {
					// Boundary plans store the injection→boundary part;
					// the golden tail is this program's, not the one the
					// table was measured under.
					r.Lat += cs.f.g.cycles - sec.exitCycles
				}
			}
			cached[idx] = r
			cs.metas[idx] = planMeta{set: true, class: cp.Class, boundary: cp.Boundary,
				localLat: cp.Lat, outDig: cp.OutDigest}
			served++
		}
		sec.current = served == sec.n && t.GlobalDigest == cs.globalDig
		cache.Served(served)
	}
	return cached
}

// worker wraps an engine worker with the section-local run: each plan
// resumes where the engine worker picks, its section's entry snapshot or
// a later fork inside the section, and stops at the section boundary,
// where its state is classified against the golden exit or continued
// end-to-end.
func (cs *composition) worker(w worker) worker {
	return composeWorker{cs: cs, w: w.(*asmWorker)}
}

type composeWorker struct {
	cs *composition
	w  *asmWorker
}

func (cw composeWorker) newBatch() { cw.w.newBatch() }

func (cw composeWorker) run(p plannedFault) PlanRecord {
	cs, w := cw.cs, cw.w
	si := sort.Search(len(cs.secs), func(i int) bool { return cs.secs[i].end > p.site })
	sec := &cs.secs[si]
	opts := w.opts(p)
	if sec.exit != nil {
		opts.StopAtSites = sec.end
	}
	r := w.exec(opts)
	if r.Outcome != machine.OutcomeBoundary {
		rec := w.e.record(r)
		meta := planMeta{set: true, class: compose.ClassLocal}
		if r.Outcome == machine.OutcomeOK {
			meta.class = compose.ClassOutput
			meta.outDig = compose.OutputDigest(r.Output)
		}
		cs.metas[p.idx] = meta
		return rec
	}
	d := w.m.DiffSnapshots(r.Boundary, sec.exit)
	v, exact := compose.Classify(d, sec.deadR, sec.deadF)
	if v == compose.VerdictFallback {
		// Ambiguous boundary: continue the same run end-to-end. The
		// boundary snapshot carries the injection bookkeeping, so outcome
		// and latency match a monolithic full run.
		rec := w.e.record(w.m.Run(machine.RunOpts{Args: w.e.tgt.Args, MaxSteps: w.e.maxSteps,
			Resume: r.Boundary, Golden: w.e.sched}))
		rec.Fallback = true
		cs.metas[p.idx] = planMeta{set: true, class: compose.ClassGlobal}
		return rec
	}
	rec := PlanRecord{Outcome: Benign}
	if v == compose.VerdictSDC {
		rec.Outcome = SDC
	}
	meta := planMeta{set: true, boundary: true, class: compose.ClassGlobal}
	if exact {
		meta.class = compose.ClassLocal
	}
	if r.Injected {
		meta.localLat = r.Boundary.CyclesNow() - r.FaultCycles
		rec.Lat, rec.HasLat = meta.localLat+(cs.f.g.cycles-sec.exitCycles), true
	}
	cs.metas[p.idx] = meta
	return rec
}

// finish adds the composed ledger to the flow's Result, stores every
// fully-measured section's propagation table, and under ComposeValidate
// runs the monolithic campaign to compare against.
func (cs *composition) finish(res *Result) error {
	recs, c := cs.f.recs, cs.f.c
	sum := ComposeSummary{Enabled: true, Mode: c.Compose.String(), Interval: cs.f.sched.k, Composed: len(recs)}
	for i := range cs.secs {
		sec := &cs.secs[i]
		row := SectionRow{
			Start:       sec.start,
			End:         sec.end,
			Fingerprint: fmt.Sprintf("%016x", sec.key),
			Plans:       sec.n,
		}
		for _, r := range recs[sec.base : sec.base+sec.n] {
			row.Counts[r.Outcome]++
			if r.Fallback {
				row.Fallbacks++
			}
		}
		sum.Fallbacks += row.Fallbacks
		sum.Rows = append(sum.Rows, row)
	}
	sum.Sections = sum.Composed - sum.Fallbacks
	res.Composed = sum
	cs.put()

	if c.Compose == ComposeValidate {
		mc := c
		mc.Compose, mc.SectionCache = ComposeOff, nil
		mc.Journal, mc.Key, mc.Prior = nil, "", nil
		mc.Obs, mc.Progress = nil, nil
		mono, err := RunAsmCampaign(cs.e.tgt, mc)
		if err != nil {
			return fmt.Errorf("fi: compose validation: %w", err)
		}
		v := &ComposeValidation{
			MonoSamples:  mono.Samples,
			SDC:          res.SDCRate(),
			MonoSDC:      mono.SDCRate(),
			Detected:     res.Rate(Detected),
			MonoDetected: mono.Rate(Detected),
			SDCTol:       ciHalf(res.Counts[SDC], res.Samples) + ciHalf(mono.Counts[SDC], mono.Samples),
			DetectedTol:  ciHalf(res.Counts[Detected], res.Samples) + ciHalf(mono.Counts[Detected], mono.Samples),
		}
		v.OK = math.Abs(v.SDC-v.MonoSDC) <= v.SDCTol &&
			math.Abs(v.Detected-v.MonoDetected) <= v.DetectedTol
		res.Composed.Validation = v
	}
	return nil
}

// put rebuilds and stores each fully-measured section's propagation table.
// Sections containing journal-replayed plans carry no descriptor metadata
// and are skipped — resume correctness never depends on the cache. So is a
// section served whole under the current global digest: its rebuilt table
// would equal the one the cache holds. Tables that served under a stale
// global digest were re-measured plan-by-plan, so the Put refreshes their
// global entries.
func (cs *composition) put() {
	cache, recs, plans := cs.f.c.SectionCache, cs.f.recs, cs.f.orig
	if cache == nil {
		return
	}
	for i := range cs.secs {
		sec := &cs.secs[i]
		if sec.n == 0 || sec.current {
			continue
		}
		complete := true
		for j := 0; j < sec.n; j++ {
			if !cs.metas[sec.base+j].set {
				complete = false
				break
			}
		}
		if !complete {
			continue
		}
		t := &compose.Table{GlobalDigest: cs.globalDig, Plans: make([]compose.CachedPlan, sec.n)}
		for j := 0; j < sec.n; j++ {
			idx := sec.base + j
			pm, r := cs.metas[idx], recs[idx]
			cp := compose.CachedPlan{
				Site:      plans[idx].site,
				Bit:       uint16(plans[idx].bit),
				Outcome:   uint8(r.Outcome),
				Fallback:  r.Fallback,
				Class:     pm.class,
				Boundary:  pm.boundary,
				OutDigest: pm.outDig,
				HasLat:    r.HasLat,
			}
			if r.HasLat {
				cp.Lat = r.Lat
				if pm.boundary {
					cp.Lat = pm.localLat
				}
			}
			t.Plans[j] = cp
		}
		cache.Put(sec.key, t)
	}
}

// tableMatchesPlans cross-checks a cached table's plan identity against the
// regenerated section plans.
func tableMatchesPlans(t *compose.Table, plans []plannedFault) bool {
	for j, p := range plans {
		if t.Plans[j].Site != p.site || t.Plans[j].Bit != uint16(p.bit) {
			return false
		}
	}
	return true
}
