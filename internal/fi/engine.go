package fi

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ferrum/internal/ir"
	"ferrum/internal/machine"
	"ferrum/internal/obs"
)

// engine is what the campaign flow (campaign.go) needs from one injection
// level: asmEngine drives the machine model (the PINFI-style injector),
// irEngine the IR interpreter (the LLFI-style one). Plan drawing, the run
// mode stages, the worker pool, resume accounting and result assembly are
// level-independent and live in the flow.
type engine interface {
	// golden runs the built template unfaulted, taking c's checkpoint
	// schedule (goldenCheckpoints) in the same run; the engine keeps the
	// snapshots, goldenRun.sched says where they sit.
	golden(c Campaign) (goldenRun, error)
	// planned tells the engine the plan is drawn: it drops what only the
	// draw and its stages read.
	planned()
	// clone returns a worker over its own copy of the template's mutable
	// state that resumes its plans from s and counts there where each
	// started; with s nil every plan cold-starts. Safe for concurrent use.
	clone(s *schedule) worker
	// observe publishes the engine's work counters once the plans ran.
	observe(o *obs.Ctx)
	// release returns the memory of every clone and then the template to
	// the pool of zero buffers. The engine is unusable afterwards.
	release()
	// unit names the detection-latency unit: "cycles" or "insts".
	unit() string
}

// worker runs plans on one engine clone, a batch at a time.
type worker interface {
	// run executes p from the newest golden state at or before its site
	// the worker can resume from, or from program start.
	run(p plannedFault) PlanRecord
	// newBatch starts the next batch. A worker carries no resume state
	// from one batch into the next: which batches a worker runs depends on
	// scheduling, and where each plan starts must not, so that a Result's
	// checkpoint activity is the same at any worker count.
	newBatch()
}

// goldenRun is what the flow reads of a golden run.
type goldenRun struct {
	sites, insts uint64
	output       []uint64
	cycles       float64 // machine cycles; 0 at IR level (no cycle model)
	// width returns the per-site destination-width lookup the plan draw
	// samples bits from, counting fallback draws into *fallbacks (see
	// siteWidth). nil at IR level, where every site is 64 bits wide.
	width func(fallbacks *int) func(uint64) uint
	// sched is the checkpoint schedule the golden run took; nil when it
	// took none.
	sched *schedule
	// hint is the site count the golden run was started with (0: none),
	// startK the K its schedule started at, and reran whether the hint
	// started it too high, so that it ran again (hintedGolden).
	hint, startK uint64
	reran        bool
}

// schedule is a golden run's checkpoint schedule as the flow sees it,
// and the tally of where the plans resumed from it started. Workers add to
// the tally concurrently.
type schedule struct {
	k     uint64
	sites []uint64 // snapshot site counts, ascending
	bytes int      // dirtied bytes captured across all snapshots

	// restores counts plans resumed from a golden state, forks the part of
	// them resumed from a worker's fork, coldStarts the plans run from
	// program start, and skipped the instructions the resumed plans did
	// not execute.
	restores, forks, coldStarts, skipped atomic.Int64
}

// nearest returns the index of the latest snapshot taken at or before
// site, or -1 if the site precedes the first snapshot.
func (s *schedule) nearest(site uint64) int {
	return sort.Search(len(s.sites), func(i int) bool { return s.sites[i] > site }) - 1
}

// resumed counts a plan that started skipped instructions into the run,
// from a worker's fork when fork is set.
func (s *schedule) resumed(skipped uint64, fork bool) {
	s.restores.Add(1)
	s.skipped.Add(int64(skipped))
	if fork {
		s.forks.Add(1)
	}
}

// setAttrs describes the schedule on the golden span that took it.
func (s *schedule) setAttrs(sp *obs.ActiveSpan) {
	sp.SetAttr("k", s.k)
	sp.SetAttr("snapshots", len(s.sites))
	sp.SetAttr("bytes", s.bytes)
}

func (s *schedule) add(sites uint64, bytes int) {
	s.sites = append(s.sites, sites)
	s.bytes += bytes
}

// Each engine's terminal outcomes by campaign class; classify splits a
// completed run into Benign and SDC.
var (
	asmClass = [...]Outcome{machine.OutcomeOK: Benign, machine.OutcomeDetected: Detected,
		machine.OutcomeCrash: Crash, machine.OutcomeHang: Hang}
	irClass = [...]Outcome{ir.OutcomeOK: Benign, ir.OutcomeDetected: Detected,
		ir.OutcomeCrash: Crash, ir.OutcomeHang: Hang}
)

// asmEngine injects into the machine model.
type asmEngine struct {
	tgt      AsmTarget
	maxSteps uint64
	// m0 is the fully-loaded template machine: program decoded, data image
	// installed. Workers are clones of it — they share the decoded program
	// and image and own all mutable run state. machines collects the clones
	// (clone runs inside worker goroutines, hence the mutex) so their
	// counters can be merged after the plans ran.
	m0       *machine.Machine
	mu       sync.Mutex
	machines []*machine.Machine
	res      machine.Result
	// instrs is the template's StaticInstrs table, which res.SiteStatics
	// index: each site's location and destination width. The per-site
	// table is dropped once the plan is drawn (planned) unless keepSites
	// asks for it (siteLoc).
	instrs    []machine.StaticInstr
	keepSites bool
	// sched is the checkpoint schedule the golden run took. Plans resume
	// from its snapshots and end at the first one their state rejoins
	// (machine.RunOpts.Golden); under compose its End also has FnSpans,
	// which say which functions ran between the snapshots.
	sched *machine.Golden
}

func newAsmEngine(tgt AsmTarget, maxSteps uint64) (*asmEngine, error) {
	m, err := machine.New(tgt.Prog, tgt.MemSize)
	if err != nil {
		return nil, fmt.Errorf("fi: %w", err)
	}
	if tgt.Setup != nil {
		if err := tgt.Setup(m); err != nil {
			m.Release()
			return nil, fmt.Errorf("fi: %w", err)
		}
	}
	return &asmEngine{tgt: tgt, maxSteps: maxSteps, m0: m}, nil
}

// golden also records the run's per-site static ids, and under compose
// its function spans: on the block loop they cost one compare per block
// entry, and compose's section keys hash them. The target's site count,
// when it has one, sizes the site table and starts the schedule.
func (e *asmEngine) golden(c Campaign) (goldenRun, error) {
	ckpts, start, reran := hintedGolden(c, false, e.tgt.Sites, func(s *machine.Checkpoints, expect uint64) (uint64, bool) {
		e.res = e.m0.Run(machine.RunOpts{
			Args:              e.tgt.Args,
			MaxSteps:          e.maxSteps,
			RecordSiteStatics: true,
			RecordFnSpans:     c.Compose != ComposeOff,
			Checkpoints:       s,
			ExpectSites:       expect,
		})
		return e.res.DynSites, e.res.Outcome == machine.OutcomeOK
	})
	if e.res.Outcome != machine.OutcomeOK {
		return goldenRun{}, fmt.Errorf("fi: golden run failed: %v (%s)", e.res.Outcome, e.res.CrashMsg)
	}
	e.instrs = e.m0.StaticInstrs()
	g := goldenRun{
		sites:  e.res.DynSites,
		insts:  e.res.DynInsts,
		output: e.res.Output,
		cycles: e.res.Cycles,
		width: func(fallbacks *int) func(uint64) uint {
			return siteWidth(e.res.SiteStatics, e.instrs, fallbacks)
		},
		hint: e.tgt.Sites, startK: start, reran: reran,
	}
	if ckpts != nil {
		end := e.res
		end.SiteStatics = nil
		e.sched = &machine.Golden{Checkpoints: ckpts.Snaps, End: end}
		g.sched = &schedule{k: ckpts.Every}
		for _, sn := range ckpts.Snaps {
			g.sched.add(sn.Sites(), sn.MemBytes())
		}
	}
	return g, nil
}

func (e *asmEngine) planned() {
	if !e.keepSites {
		e.res.SiteStatics = nil
	}
}

func (e *asmEngine) clone(s *schedule) worker {
	m := e.m0.Clone()
	e.mu.Lock()
	e.machines = append(e.machines, m)
	e.mu.Unlock()
	w := &asmWorker{e: e, m: m, s: s}
	if s != nil {
		w.fork, w.spare = new(machine.Snapshot), new(machine.Snapshot)
	}
	return w
}

// observe publishes the lifetime counters of the template and every clone:
// block segments entered and the plans that ended at a golden checkpoint.
// Like the ckpt.* counters, these count work this process did or avoided,
// so journal-answered campaigns never replay them.
func (e *asmEngine) observe(o *obs.Ctx) {
	if o == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var blocks, converged uint64
	for _, m := range append([]*machine.Machine{e.m0}, e.machines...) {
		blocks += m.DispatchStats()
		converged += m.Converged()
	}
	o.Counter(obs.MBlocksEntered).Add(int64(blocks))
	o.Counter(obs.MCkptConverged).Add(int64(converged))
}

func (e *asmEngine) release() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, m := range e.machines {
		m.Release()
	}
	e.m0.Release()
}

func (e *asmEngine) unit() string { return "cycles" }

// siteLoc is the static location of the golden run's site-th site.
func (e *asmEngine) siteLoc(site uint64) machine.SiteLoc {
	st := &e.instrs[e.res.SiteStatics[site]]
	return machine.SiteLoc{Fn: st.Fn, Idx: st.Idx}
}

// record classifies an injected run against the golden output.
func (e *asmEngine) record(r machine.Result) PlanRecord {
	rec := PlanRecord{Outcome: classify(asmClass[r.Outcome], r.Output, e.res.Output)}
	if r.Injected {
		rec.Lat, rec.HasLat = r.Cycles-r.FaultCycles, true
	}
	return rec
}

// asmWorker runs plans on one machine clone. Each run forks the golden
// state at its fault site (machine.RunOpts.Fork), and the worker keeps the
// last fork of the batch: plans arrive sorted by site, so the next plan
// usually resumes there, a few sites on, instead of replaying the span
// from its checkpoint again.
type asmWorker struct {
	e *asmEngine
	m *machine.Machine
	s *schedule // nil: every plan cold-starts
	// fork holds the batch's last fork when forked is set, and spare is
	// the buffer the next fork is captured into. The worker forks into the
	// two in turn, so after their first few plans forks allocate nothing.
	fork, spare *machine.Snapshot
	forked      bool
	fault       machine.Fault // the fault of the plan in flight
}

// opts are the run options of plan p. It resumes from the newest golden
// state at or before its site: the worker's fork when that lies after the
// nearest checkpoint, else the checkpoint, else program start. The run
// forks at p's site into the spare buffer; exec keeps the fork.
func (w *asmWorker) opts(p plannedFault) machine.RunOpts {
	w.fault = machine.Fault{Site: p.site, Bit: p.bit, Extra: p.extra}
	opts := machine.RunOpts{Args: w.e.tgt.Args, MaxSteps: w.e.maxSteps, Fault: &w.fault}
	if w.s == nil {
		return opts
	}
	if i := w.s.nearest(p.site); i >= 0 {
		opts.Resume = w.e.sched.Checkpoints[i]
	}
	fork := w.forked && w.fork.Sites() <= p.site &&
		(opts.Resume == nil || w.fork.Sites() > opts.Resume.Sites())
	if fork {
		opts.Resume = w.fork
	}
	if opts.Resume != nil {
		w.s.resumed(opts.Resume.DynInsts(), fork)
	} else {
		w.s.coldStarts.Add(1)
	}
	opts.Fork = w.spare
	return opts
}

// exec runs opts and keeps the fork the run took; the buffer of the fork
// it replaces becomes the spare.
func (w *asmWorker) exec(opts machine.RunOpts) machine.Result {
	r := w.m.Run(opts)
	if opts.Fork != nil && r.Injected {
		w.fork, w.spare, w.forked = w.spare, w.fork, true
	}
	return r
}

func (w *asmWorker) run(p plannedFault) PlanRecord {
	opts := w.opts(p)
	opts.Golden = w.e.sched
	return w.e.record(w.exec(opts))
}

// newBatch drops the fork.
func (w *asmWorker) newBatch() { w.forked = false }

// irEngine injects into the IR interpreter.
type irEngine struct {
	tgt      IRTarget
	maxSteps uint64
	// ip0 is the fully-loaded template; workers clone it, sharing the
	// decoded module and pristine memory image. clones collects them for
	// release (clone runs inside worker goroutines, hence the mutex).
	ip0    *ir.Interp
	mu     sync.Mutex
	clones []*ir.Interp
	output []uint64
	snaps  []*ir.Snapshot
}

func newIREngine(tgt IRTarget, maxSteps uint64) (*irEngine, error) {
	ip, err := ir.NewInterp(tgt.Mod, tgt.MemSize)
	if err != nil {
		return nil, fmt.Errorf("fi: %w", err)
	}
	if tgt.Setup != nil {
		if err := tgt.Setup(ip); err != nil {
			ip.Release()
			return nil, fmt.Errorf("fi: %w", err)
		}
	}
	return &irEngine{tgt: tgt, maxSteps: maxSteps, ip0: ip}, nil
}

func (e *irEngine) golden(c Campaign) (goldenRun, error) {
	ckpts := goldenCheckpoints[ir.Snapshot](c, true, 0)
	g := goldenRun{}
	if ckpts != nil {
		g.startK = ckpts.Every
	}
	r := e.ip0.Run(ir.RunOpts{Args: e.tgt.Args, MaxSteps: e.maxSteps, Checkpoints: ckpts})
	if r.Outcome != ir.OutcomeOK {
		return goldenRun{}, fmt.Errorf("fi: golden IR run failed: %v (%s)", r.Outcome, r.CrashMsg)
	}
	e.output = r.Output
	g.sites, g.insts, g.output = r.Sites, r.Steps, r.Output
	if ckpts != nil {
		e.snaps = ckpts.Snaps
		g.sched = &schedule{k: ckpts.Every}
		for _, sn := range ckpts.Snaps {
			g.sched.add(sn.Sites(), sn.MemBytes())
		}
	}
	return g, nil
}

func (e *irEngine) clone(s *schedule) worker {
	ip := e.ip0.Clone()
	e.mu.Lock()
	e.clones = append(e.clones, ip)
	e.mu.Unlock()
	return &irWorker{e: e, ip: ip, s: s}
}

func (e *irEngine) release() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ip := range e.clones {
		ip.Release()
	}
	e.ip0.Release()
}

func (e *irEngine) planned()         {}
func (e *irEngine) observe(*obs.Ctx) {}
func (e *irEngine) unit() string     { return "insts" }

type irWorker struct {
	e  *irEngine
	ip *ir.Interp
	s  *schedule // nil: every plan cold-starts
}

// run resumes p from the latest snapshot at or before its site.
func (w *irWorker) run(p plannedFault) PlanRecord {
	opts := ir.RunOpts{
		Args:     w.e.tgt.Args,
		MaxSteps: w.e.maxSteps,
		Fault:    &ir.Fault{Site: p.site, Bit: p.bit},
	}
	if w.s != nil {
		if i := w.s.nearest(p.site); i >= 0 {
			opts.Resume = w.e.snaps[i]
			w.s.resumed(opts.Resume.Steps(), false)
		} else {
			w.s.coldStarts.Add(1)
		}
	}
	r := w.ip.Run(opts)
	rec := PlanRecord{Outcome: classify(irClass[r.Outcome], r.Output, w.e.output)}
	if r.Injected {
		rec.Lat, rec.HasLat = float64(r.Steps-r.FaultStep), true
	}
	return rec
}

func (w *irWorker) newBatch() {}
