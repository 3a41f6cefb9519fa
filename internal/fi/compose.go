package fi

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

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
	// entry is the golden snapshot at start (nil: run from program start);
	// exit is the golden snapshot at end (nil: terminal section, runs to the
	// program's end with no boundary stop).
	entry, exit *machine.Snapshot
	base, n     int   // plan index range [base, base+n)
	seed        int64 // section-local plan RNG seed
	key         uint64
	exitCycles  float64 // golden cycle clock at the exit boundary
	deadR       liveness.RegSet
	deadF       liveness.FlagSet
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
func buildSections(cps *asmCheckpoints, dynSites uint64) []section {
	var secs []section
	var prev uint64
	var prevSnap *machine.Snapshot
	for i, s := range cps.snaps {
		if s.Sites() > prev {
			secs = append(secs, section{start: prev, end: s.Sites(), entry: prevSnap, exit: s})
		}
		prev, prevSnap = s.Sites(), cps.snaps[i]
	}
	if dynSites > prev {
		secs = append(secs, section{start: prev, end: dynSites, entry: prevSnap})
	}
	return secs
}

// makeSectionPlans samples one section's stratified plan slice: sites
// uniform in [start, end), bits and multi-bit extras exactly as makePlans
// draws them, from the section-local seed — so a section's plan sequence is
// a pure function of its identity, not of its ordinal or its neighbours.
func makeSectionPlans(c Campaign, sec *section, width func(uint64) uint) []plannedFault {
	rng := rand.New(rand.NewSource(sec.seed))
	plans := make([]plannedFault, sec.n)
	for i := range plans {
		site := sec.start + uint64(rng.Int63n(int64(sec.end-sec.start)))
		w := uint(64)
		if width != nil {
			w = width(site)
		}
		p := plannedFault{idx: sec.base + i, site: site, bit: uint(rng.Intn(int(w)))}
		bits := c.BitsPerFault
		if bits > int(w) {
			bits = int(w)
		}
		for extra := 1; extra < bits; extra++ {
			b := uint(rng.Intn(int(w)))
			for duplicateBit(p, b) {
				b = uint(rng.Intn(int(w)))
			}
			p.extra = append(p.extra, b)
		}
		plans[i] = p
	}
	return plans
}

func ciHalf(k, n int) float64 {
	lo, hi := wilson(float64(k), float64(n))
	return (hi - lo) / 2
}

// runComposedAsmCampaign is the compositional counterpart of the monolithic
// asmCampaign flow behind RunAsmCampaign.
func runComposedAsmCampaign(tgt AsmTarget, c Campaign) (Result, error) {
	a, err := newAsmGolden(tgt, c)
	if err != nil {
		return Result{}, err
	}
	m0, golden := a.m0, &a.golden
	if golden.DynSites == 0 {
		return Result{}, ErrNoSites
	}

	// The checkpoint replay doubles as the section scaffold: its snapshots
	// delimit sections and its function spans pin each section's fingerprint
	// to the code that actually executed inside it (including zero-site
	// functions, which a site-range mapping alone would miss). It is a
	// golden run too: fallback continuations end at the first later section
	// exit their state rejoins.
	k := c.checkpointInterval(golden.DynSites)
	cps := recordAsmCheckpoints(m0, tgt, c, k)

	secs := buildSections(cps, golden.DynSites)

	// Whole-program and per-section fingerprints. The section key pins
	// everything that determines the section's propagation table: the data
	// image and arguments, the site range and schedule spacing, the golden
	// entry and exit states, the code executed inside, and the plan sequence
	// parameters. The global digest additionally pins the downstream context
	// that only ClassGlobal cache entries depend on.
	imageDig := m0.ImageDigest()
	argsDig := compose.Mix(append([]uint64{uint64(len(tgt.Args))}, tgt.Args...)...)
	allFns := make([]string, len(tgt.Prog.Funcs))
	for i, f := range tgt.Prog.Funcs {
		allFns[i] = f.Name
	}
	progDig := compose.CodeDigest(tgt.Prog, allFns)
	goldenOutDig := compose.OutputDigest(golden.Output)
	globalDig := compose.Mix(progDig, goldenOutDig, golden.DynSites,
		math.Float64bits(golden.Cycles), imageDig, argsDig, c.MaxSteps, uint64(c.BitsPerFault))

	weights := make([]uint64, len(secs))
	for i := range secs {
		weights[i] = secs[i].end - secs[i].start
	}
	budgets := compose.Alloc(c.Samples, weights)
	var widthFallbacks int
	width := a.siteWidth(&widthFallbacks)
	plans := make([]plannedFault, 0, c.Samples)
	for i := range secs {
		sec := &secs[i]
		sec.base, sec.n = len(plans), budgets[i]
		sec.seed = compose.SectionSeed(c.Seed, sec.start, sec.end)
		plans = append(plans, makeSectionPlans(c, sec, width)...)

		entryDig := uint64(0)
		if sec.entry != nil {
			entryDig = sec.entry.Digest()
		}
		var exitDig uint64
		if sec.exit != nil {
			exitDig = sec.exit.Digest()
			sec.exitCycles = sec.exit.CyclesNow()
			if fn, idx, ok := m0.LocOf(sec.exit.PC()); ok {
				sec.deadR, sec.deadF = compose.DeadSets(tgt.Prog, fn, idx)
			}
		} else {
			// The terminal section's "exit state" is the golden program end.
			exitDig = compose.Mix(goldenOutDig, golden.DynSites, math.Float64bits(golden.Cycles))
		}
		secDig := compose.CodeDigest(tgt.Prog, compose.FnsInRange(cps.golden.End.FnSpans, sec.start, sec.end))
		sec.key = compose.Mix(imageDig, argsDig, sec.start, sec.end, k,
			entryDig, exitDig, secDig, uint64(sec.seed), uint64(sec.n),
			uint64(c.BitsPerFault), c.MaxSteps)
	}
	if widthFallbacks > 0 {
		c.Obs.Counter(obs.MWidthFallbacks).Add(int64(widthFallbacks))
	}
	golden.SiteStatics = nil // the plan is drawn

	// Serve plans from cached section tables. A key hit serves every plan
	// whose validity class allows it: local and output-class plans on the
	// key alone, global-class plans only under an unchanged whole-program
	// digest — a partial hit re-executes just the stale global plans.
	cache := c.SectionCache
	metas := make([]planMeta, len(plans))
	var cached map[int]planResult
	if cache != nil {
		cached = map[int]planResult{}
		for i := range secs {
			sec := &secs[i]
			if sec.n == 0 {
				continue
			}
			t := cache.Get(sec.key)
			if t == nil {
				continue
			}
			if len(t.Plans) != sec.n || !tableMatchesPlans(t, plans[sec.base:sec.base+sec.n]) {
				// A fingerprint collision; vanishingly unlikely, but refuse
				// to serve results for different plans.
				continue
			}
			served := 0
			for j := 0; j < sec.n; j++ {
				cp := t.Plans[j]
				if cp.Class == compose.ClassGlobal && t.GlobalDigest != globalDig {
					continue
				}
				idx := sec.base + j
				r := planResult{o: Outcome(cp.Outcome), fb: cp.Fallback}
				if cp.Class == compose.ClassOutput {
					// Early program exit inside the section: the stored
					// faulty-output digest reclassifies against the CURRENT
					// golden output, so the entry survives golden changes.
					if cp.OutDigest == goldenOutDig {
						r.o = Benign
					} else {
						r.o = SDC
					}
				}
				if cp.HasLat {
					r.lat, r.hasLat = cp.Lat, true
					if cp.Boundary {
						// Boundary plans store the injection→boundary part;
						// the golden tail is this program's, not the one the
						// table was measured under.
						r.lat += golden.Cycles - sec.exitCycles
					}
				}
				cached[idx] = r
				metas[idx] = planMeta{set: true, class: cp.Class, boundary: cp.Boundary,
					localLat: cp.Lat, outDig: cp.OutDigest}
				served++
			}
			cache.Served(served)
		}
	}

	var restores, coldStarts, skipped atomic.Int64
	var mu sync.Mutex
	var machines []*machine.Machine
	findSec := func(site uint64) *section {
		i := sort.Search(len(secs), func(i int) bool { return secs[i].end > site })
		return &secs[i]
	}
	worker := func(m *machine.Machine, p plannedFault) planResult {
		sec := findSec(p.site)
		opts := machine.RunOpts{
			Args:     tgt.Args,
			MaxSteps: c.MaxSteps,
			Fault:    &machine.Fault{Site: p.site, Bit: p.bit, Extra: p.extra},
		}
		if sec.entry != nil {
			opts.Resume = sec.entry
			restores.Add(1)
			skipped.Add(int64(sec.entry.DynInsts()))
		} else {
			coldStarts.Add(1)
		}
		if sec.exit != nil {
			opts.StopAtSites = sec.end
		}
		r := m.Run(opts)
		var pr planResult
		meta := planMeta{set: true}
		if r.Outcome == machine.OutcomeBoundary {
			d := m.DiffSnapshots(r.Boundary, sec.exit)
			v, exact := compose.Classify(d, sec.deadR, sec.deadF)
			if v == compose.VerdictFallback {
				// Ambiguous boundary: continue the same run end-to-end. The
				// boundary snapshot carries the injection bookkeeping, so
				// outcome and latency match a monolithic full run.
				r2 := m.Run(machine.RunOpts{Args: tgt.Args, MaxSteps: c.MaxSteps, Resume: r.Boundary, Golden: cps.golden})
				pr.o = classifyAsm(r2, golden.Output)
				if r2.Injected {
					pr.lat, pr.hasLat = r2.Cycles-r2.FaultCycles, true
				}
				pr.fb = true
				meta.class = compose.ClassGlobal
			} else {
				if v == compose.VerdictSDC {
					pr.o = SDC
				} else {
					pr.o = Benign
				}
				meta.boundary = true
				meta.class = compose.ClassGlobal
				if exact {
					meta.class = compose.ClassLocal
				}
				if r.Injected {
					meta.localLat = r.Boundary.CyclesNow() - r.FaultCycles
					pr.lat, pr.hasLat = meta.localLat+(golden.Cycles-sec.exitCycles), true
				}
			}
		} else {
			pr.o = classifyAsm(r, golden.Output)
			if r.Injected {
				pr.lat, pr.hasLat = r.Cycles-r.FaultCycles, true
			}
			if r.Outcome == machine.OutcomeOK {
				meta.class = compose.ClassOutput
				meta.outDig = compose.OutputDigest(r.Output)
			} else {
				meta.class = compose.ClassLocal
			}
		}
		metas[p.idx] = meta
		return pr
	}

	isp := c.Obs.Span("inject")
	isp.SetAttr("plans", len(plans))
	po, err := runPlans(c, plans, func() (func(plannedFault) planResult, error) {
		m := m0.Clone()
		mu.Lock()
		machines = append(machines, m)
		mu.Unlock()
		return func(p plannedFault) planResult { return worker(m, p) }, nil
	}, cached)
	isp.End()
	mu.Lock()
	observeMachines(c.Obs, append([]*machine.Machine{m0}, machines...))
	mu.Unlock()
	if err != nil {
		return Result{}, err
	}

	res := Result{
		Samples:  po.samples,
		Counts:   po.counts,
		DynSites: golden.DynSites,
		Golden:   golden.Output,
		Cycles:   golden.Cycles,
		Checkpoint: CheckpointSummary{
			Enabled:       true,
			Interval:      k,
			Snapshots:     len(cps.snaps),
			SnapshotBytes: cps.bytes(),
			Restores:      restores.Load(),
			ColdStarts:    coldStarts.Load(),
			SkippedInsts:  skipped.Load(),
		},
		Latency: aggregateLatency("cycles", po.samples, po.outcomes, po.lats, po.hasLat),
	}
	cs := ComposeSummary{Enabled: true, Mode: c.Compose.String(), Interval: k, Composed: po.samples}
	for i := range secs {
		sec := &secs[i]
		row := SectionRow{
			Start:       sec.start,
			End:         sec.end,
			Fingerprint: fmt.Sprintf("%016x", sec.key),
			Plans:       sec.n,
		}
		for j := 0; j < sec.n; j++ {
			row.Counts[po.outcomes[sec.base+j]]++
			if po.fbs[sec.base+j] {
				row.Fallbacks++
			}
		}
		cs.Fallbacks += row.Fallbacks
		cs.Rows = append(cs.Rows, row)
	}
	cs.Sections = cs.Composed - cs.Fallbacks
	res.Composed = cs

	// Rebuild and store each fully-measured section's propagation table.
	// Sections containing journal-replayed plans carry no descriptor
	// metadata and are skipped — resume correctness never depends on the
	// cache. Tables that served under a stale global digest were re-measured
	// plan-by-plan above, so the Put refreshes their global entries.
	if cache != nil {
		for i := range secs {
			sec := &secs[i]
			if sec.n == 0 {
				continue
			}
			complete := true
			for j := 0; j < sec.n; j++ {
				if !metas[sec.base+j].set {
					complete = false
					break
				}
			}
			if !complete {
				continue
			}
			t := &compose.Table{GlobalDigest: globalDig, Plans: make([]compose.CachedPlan, sec.n)}
			for j := 0; j < sec.n; j++ {
				idx := sec.base + j
				pm := metas[idx]
				cp := compose.CachedPlan{
					Site:      plans[idx].site,
					Bit:       uint16(plans[idx].bit),
					Outcome:   uint8(po.outcomes[idx]),
					Fallback:  po.fbs[idx],
					Class:     pm.class,
					Boundary:  pm.boundary,
					OutDigest: pm.outDig,
				}
				if po.hasLat[idx] {
					cp.HasLat = true
					if pm.boundary {
						cp.Lat = pm.localLat
					} else {
						cp.Lat = po.lats[idx]
					}
				}
				t.Plans[j] = cp
			}
			cache.Put(sec.key, t)
		}
	}

	if c.Compose == ComposeValidate {
		mc := c
		mc.Compose, mc.SectionCache = ComposeOff, nil
		mc.Journal, mc.Key, mc.Prior = nil, "", nil
		mc.Obs, mc.Progress = nil, nil
		mono, err := RunAsmCampaign(tgt, mc)
		if err != nil {
			return Result{}, fmt.Errorf("fi: compose validation: %w", err)
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

	c.observe(res)
	c.journalCell(res)
	if err := c.journalErr(); err != nil {
		return Result{}, err
	}
	return res, nil
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
