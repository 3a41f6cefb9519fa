package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ferrum/internal/fi"
	"ferrum/internal/machine"
	"ferrum/internal/obs"
	"ferrum/internal/rodinia"
)

// ErrCellTimeout marks a cell that the per-cell watchdog canceled after
// Options.CellTimeout elapsed. Wrapped errors satisfy errors.Is.
var ErrCellTimeout = errors.New("harness: cell timed out")

// CellEvent is one scheduler cell transition, delivered to Options.Progress.
// Each independent (benchmark × technique) unit of an experiment is a cell;
// every cell produces one start event (Done=false) and one completion event
// (Done=true) carrying its wall-clock and injection count.
type CellEvent struct {
	Experiment string        // e.g. "fig10"
	Cell       string        // e.g. "bfs/ferrum"
	Index      int           // cell index within the experiment
	Total      int           // number of cells in the experiment
	Done       bool          // false on start, true on completion
	Wall       time.Duration // cell wall-clock (completion events only)
	Injections int           // fault injections executed by the cell
	Err        error         // non-nil if the cell failed (completion events only)
}

// cellSpec is one schedulable unit: a named closure plus the number of
// fault injections it will execute (for rate reporting; 0 for build-only
// cells). The closure receives the cell's context — observability handle,
// journal key, watchdog cancellation — so campaign phases attribute their
// spans to the cell and campaigns participate in durable resume.
type cellSpec struct {
	name string
	inj  int
	run  func(cc *cellCtx) error
}

// cellCtx is what a cell closure receives for one attempt: the cell's
// observability context (cx, nil when observability is off), its journal
// key (experiment-qualified, stable across runs, so resumed suites match
// records to cells), and the watchdog's cancellation channel (nil when no
// CellTimeout is set). Campaign-running cells thread all three into
// fi.Campaign via scheduler.campaign; cancellation is cooperative, so a
// cell that never checks cancel (pure build/golden cells) simply runs to
// completion.
type cellCtx struct {
	cx     *obs.Ctx
	key    string
	cancel <-chan struct{}
}

// scheduler runs an experiment's independent cells on a bounded worker
// pool, layered on top of the intra-campaign parallelism in package fi.
// Determinism: cells write results into caller-owned slots indexed by cell,
// and every campaign's fault plan is pre-generated from the seed, so
// rendered tables are byte-identical for any worker count.
type scheduler struct {
	exp         string
	opts        Options
	cache       *BuildCache
	cellWorkers int
	campWorkers int

	progressMu sync.Mutex // serialises Options.Progress callbacks
}

func newScheduler(exp string, opts Options) *scheduler {
	cw := opts.CellWorkers
	if cw <= 0 {
		cw = runtime.GOMAXPROCS(0)
	}
	camp := opts.Workers
	if camp <= 0 {
		// Split the CPU budget between the two parallelism layers so cell
		// concurrency does not multiply into GOMAXPROCS² goroutines.
		camp = runtime.GOMAXPROCS(0) / cw
		if camp < 1 {
			camp = 1
		}
	}
	return &scheduler{exp: exp, opts: opts, cache: opts.Cache, cellWorkers: cw, campWorkers: camp}
}

// campaign builds the per-cell fi.Campaign from the options' template.
// Fault plans derive only from the template's result-shaping fields, so
// worker counts never change campaign results. cc ties the campaign's spans
// and counters to the cell being run, keys its journal records, replays its
// journaled prior, and wires the watchdog's cancellation into the
// campaign's batch loop.
func (s *scheduler) campaign(cc *cellCtx) fi.Campaign {
	c := s.opts.Campaign()
	c.Workers = s.campWorkers
	c.Cancel, c.Key, c.Obs = cc.cancel, cc.key, cc.cx
	c.Prior = s.opts.Resume.Cell(cc.key)
	return c
}

// attempt runs the cell once, arming the watchdog when CellTimeout is set.
// A watchdog-canceled attempt is reported as ErrCellTimeout (and counted);
// if the cell won the race and completed anyway, success stands.
func (s *scheduler) attempt(cx *obs.Ctx, c cellSpec) error {
	cc := &cellCtx{cx: cx, key: s.exp + "/" + c.name}
	var fired atomic.Bool
	if s.opts.CellTimeout > 0 {
		cancel := make(chan struct{})
		cc.cancel = cancel
		t := time.AfterFunc(s.opts.CellTimeout, func() {
			fired.Store(true)
			close(cancel)
		})
		defer t.Stop()
	}
	err := c.run(cc)
	if err != nil && fired.Load() {
		s.opts.Obs.Counter(obs.MSchedTimeouts).Add(1)
		return fmt.Errorf("%s: %w after %v (%v)", c.name, ErrCellTimeout, s.opts.CellTimeout, err)
	}
	if err == nil {
		// A latched journal write error (full disk, yanked volume) means this
		// cell's records may be missing even though the campaign itself
		// succeeded; surfacing it here fails the cell instead of leaving a
		// silently truncated journal for -resume to trust.
		if jerr := s.opts.Journal.Err(); jerr != nil {
			return fmt.Errorf("%s: journal write failed: %w", c.name, jerr)
		}
	}
	return err
}

// asmCampaignCell runs one (benchmark × technique) assembly-level campaign
// cell: memoised build, then RunAsmCampaign with the build's key memo and
// site-count hint, whose golden site count it leaves as the next hint.
func (s *scheduler) asmCampaignCell(cc *cellCtx, inst instanceAt, tech Technique) (fi.Result, error) {
	e, err := s.entry(cc.cx, inst, tech)
	if err != nil {
		return fi.Result{}, err
	}
	in := e.input(instKey{inst.inst.Bench.Name, s.opts.Scale, inst.seed})
	tgt := asmTarget(inst.inst, e.build)
	tgt.Keys, tgt.Sites = e.keys, in.sites.Load()
	res, err := fi.RunAsmCampaign(tgt, s.campaign(cc))
	if err == nil {
		in.sites.Store(res.DynSites)
	}
	return res, err
}

// irCampaignCell is asmCampaignCell's IR-level counterpart: raw injects the
// benchmark module as-is, IREDDI injects the protected IR. Prune and
// compose are always off at IR level (both are assembly-only).
func (s *scheduler) irCampaignCell(cc *cellCtx, inst instanceAt, tech Technique) (fi.Result, error) {
	mod := inst.inst.Mod
	if tech == IREDDI {
		build, err := s.build(cc.cx, inst, IREDDI)
		if err != nil {
			return fi.Result{}, err
		}
		mod = build.ProtectedIR
	}
	c := s.campaign(cc)
	c.Prune, c.Compose, c.SectionCache = fi.PruneOff, fi.ComposeOff, nil
	return fi.RunIRCampaign(irTarget(inst.inst, mod), c)
}

// entry memoises the technique build of an instance's benchmark at the
// scheduler's optimize setting. The span shows what the cell actually paid:
// cache hits collapse to microseconds on the timeline.
func (s *scheduler) entry(cx *obs.Ctx, inst instanceAt, tech Technique) (*buildEntry, error) {
	sp := cx.Span("build")
	sp.SetAttr("tech", string(tech))
	e := s.cache.entry(inst.inst, tech, BuildOptions{Optimize: s.opts.Optimize})
	sp.End()
	return e, e.err
}

// build is entry for a cell that needs only the build.
func (s *scheduler) build(cx *obs.Ctx, inst instanceAt, tech Technique) (*Build, error) {
	e, err := s.entry(cx, inst, tech)
	if err != nil {
		return nil, err
	}
	return e.build, nil
}

// decoded is build for a cell that runs the program itself: it returns the
// build's memoised decoded program, and its span covers the decode too.
func (s *scheduler) decoded(cx *obs.Ctx, inst instanceAt, tech Technique) (*machine.Decoded, error) {
	sp := cx.Span("build")
	sp.SetAttr("tech", string(tech))
	d, err := s.cache.decoded(inst.inst, tech, BuildOptions{Optimize: s.opts.Optimize})
	sp.End()
	return d, err
}

// golden memoises the golden run for an instance at the scheduler's
// settings.
func (s *scheduler) golden(cx *obs.Ctx, inst instanceAt, tech Technique) (golden, error) {
	sp := cx.Span("golden.cached")
	sp.SetAttr("tech", string(tech))
	g, err := s.cache.golden(inst.inst, s.opts.Scale, inst.seed, tech, BuildOptions{Optimize: s.opts.Optimize})
	sp.End()
	return g, err
}

// instanceAt pairs an instance with the seed it was generated from, which
// is part of every golden key (Variation runs cells at shifted seeds).
type instanceAt struct {
	inst *rodinia.Instance
	seed int64
}

func (s *scheduler) emit(ev CellEvent) {
	if s.opts.Progress == nil {
		return
	}
	s.progressMu.Lock()
	defer s.progressMu.Unlock()
	s.opts.Progress(ev)
}

// run executes the cells on min(cellWorkers, len(cells)) goroutines and
// returns the lowest-index error, matching what a serial sweep would have
// reported first. Worker w runs its cells on observability lane w+1 (lane 0
// is the main goroutine), so the Perfetto export shows one timeline row per
// cell worker.
func (s *scheduler) run(cells []cellSpec) error {
	n := len(cells)
	workers := s.cellWorkers
	if workers > n {
		workers = n
	}
	runCell := func(i, lane int) error {
		c := cells[i]
		cx := s.opts.Obs.Cell(c.name, lane)
		s.emit(CellEvent{Experiment: s.exp, Cell: c.name, Index: i, Total: n})
		sp := cx.Span("cell")
		start := time.Now()
		err := s.attempt(cx, c)
		wall := time.Since(start)
		sp.SetAttr("experiment", s.exp)
		sp.SetAttr("injections", c.inj)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
		s.observeCell(c, wall, err)
		s.emit(CellEvent{
			Experiment: s.exp, Cell: c.name, Index: i, Total: n,
			Done: true, Wall: wall, Injections: c.inj, Err: err,
		})
		return err
	}
	if workers <= 1 {
		for i := range cells {
			if err := runCell(i, 1); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				errs[i] = runCell(i, lane)
			}
		}(w + 1)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// observeCell publishes one completed cell's totals to the registry. The
// sched.* counters are the scheduler's own view (cells and their injection
// budgets), deliberately distinct from the fi.* counters the campaigns
// report from inside.
func (s *scheduler) observeCell(c cellSpec, wall time.Duration, err error) {
	o := s.opts.Obs
	if o == nil {
		return
	}
	o.Counter(obs.MCells).Add(1)
	o.Counter(obs.MInjections).Add(int64(c.inj))
	o.Counter(obs.MCellWallUS).Add(wall.Microseconds())
	if err != nil {
		o.Counter(obs.MCellErrs).Add(1)
	}
	o.Reg.Histogram(obs.HCellWallMS, obs.CellWallBuckets).
		Observe(float64(wall.Milliseconds()))
}
