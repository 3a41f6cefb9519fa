package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ferrum/internal/compose"
	"ferrum/internal/fi"
	"ferrum/internal/harness"
	"ferrum/internal/obs"
	"ferrum/internal/rodinia"
)

// Workload sizes. A suite input's cost is mostly fixed work (golden runs,
// recordings, builds), but a raw-binary fault plan that wanders for
// millions of cycles before crashing adds a third to the input that draws
// one. One suite pass therefore runs the whole sequence at suiteInputs
// inputs derived from the seed, at few samples per cell, which keeps that
// tail to a few percent of a pass. The work of a protected pass depends on
// where the seed's plans land: at 250 plans a cell, blocks entered varied by
// ±5% across seeds, at 1000 (the paper's cell size) by ±2%.
const (
	suiteInputs      = 4
	suiteSamples     = 5
	protectedSamples = 1000
	composeSamples   = 300
)

// allTechs is the raw baseline followed by the paper's protected techniques.
var allTechs = append([]harness.Technique{harness.Raw}, harness.Techniques...)

// passOut is what one pass reports besides its wall-clock.
type passOut struct {
	// plans counts fault plans the pass resolved, executed or not (answered
	// from the section cache counts too).
	plans int
	// wall is the pass's timed wall-clock; the benchmark's own checks and
	// host probes fall outside it.
	wall time.Duration
	// carried holds counter values that long-lived caches carried into the
	// pass's registry from earlier passes; analyze subtracts them.
	carried map[string]int64
}

// timed runs fn and adds its wall-clock to wall.
func timed(wall *time.Duration, fn func() error) error {
	t0 := time.Now()
	err := fn()
	*wall += time.Since(t0)
	return err
}

// deriveSeeds expands the run's seed into n input seeds (splitmix64), so
// nearby run seeds still give unrelated inputs.
func deriveSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	x := uint64(seed)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = int64(z >> 33)
	}
	return out
}

// instantiate generates every Rodinia benchmark's inputs at one seed.
func instantiate(seed int64) ([]*rodinia.Instance, error) {
	var out []*rodinia.Instance
	for _, b := range rodinia.All() {
		inst, err := b.Instantiate(1, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, inst)
	}
	return out, nil
}

// suite runs the `reprod -exp all` sequence in process — table2, fig10,
// fig11, exectime, profile, variation and gap, each table rendered — with
// one fresh BuildCache per input, as one reprod invocation would.
type suite struct {
	seeds []int64
	// tables holds each input's first rendering (exectime's wall-clock
	// column masked); every later run of that input must match it.
	tables map[int64]string
}

func newSuite(seed int64) *suite {
	return &suite{seeds: deriveSeeds(seed, suiteInputs), tables: map[int64]string{}}
}

func (s *suite) composed() bool { return false }

// setup generates every input and builds it under every technique once, so
// a timed pass never meets an input that fails to build.
func (s *suite) setup(*checker, func()) error {
	for _, seed := range s.seeds {
		insts, err := instantiate(seed)
		if err != nil {
			return err
		}
		for _, inst := range insts {
			for _, tech := range allTechs {
				if _, err := harness.BuildTechnique(inst.Mod, tech); err != nil {
					return fmt.Errorf("%s/%s: %w", inst.Bench.Name, tech, err)
				}
			}
		}
	}
	return nil
}

func (s *suite) pass(ob *obs.Observer, chk *checker, idle func()) (passOut, error) {
	var out passOut
	for _, seed := range s.seeds {
		if err := s.runOne(seed, ob, chk, &out, idle); err != nil {
			return out, fmt.Errorf("suite seed %d: %w", seed, err)
		}
	}
	return out, nil
}

// cellTally collects scheduler cell events. The harness serialises them
// within an experiment; the mutex orders them across experiments too.
type cellTally struct {
	mu    sync.Mutex
	plans int
	done  []harness.CellEvent
}

func (t *cellTally) event(ev harness.CellEvent) {
	if !ev.Done {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.plans += ev.Injections
	t.done = append(t.done, ev)
}

// runOne runs the suite at one input, adding its timed wall-clock to out.
// Every call into the program is a main-lane span, so the traced breakdown
// sees the experiment calls and the renders beside the cells the harness
// scheduler runs on its worker lane.
func (s *suite) runOne(seed int64, ob *obs.Observer, chk *checker, out *passOut, idle func()) error {
	tally := &cellTally{}
	opts := harness.Options{
		Samples: suiteSamples, Seed: seed, Cache: harness.NewBuildCache(),
		Obs: ob, Progress: tally.event,
	}
	lane := ob.Cell("", 0)
	call := func(name string, fn func() error) error {
		idle()
		sp := lane.Span("harness." + name)
		defer sp.End()
		return timed(&out.wall, fn)
	}
	var tables strings.Builder
	var renderTime time.Duration
	render := func(fn func() string) {
		sp := lane.Span("harness.Render")
		t0 := time.Now()
		text := fn()
		renderTime += time.Since(t0)
		sp.End()
		tables.WriteString(text)
	}

	render(harness.RenderTable1)
	var t2 []harness.Table2Row
	if err := call("Table2", func() (err error) { t2, err = harness.Table2(opts); return }); err != nil {
		return err
	}
	render(func() string { return harness.RenderTable2(t2) })
	var f10 []harness.Fig10Row
	if err := call("Fig10", func() (err error) { f10, err = harness.Fig10(opts); return }); err != nil {
		return err
	}
	render(func() string { return harness.RenderFig10(f10) })
	render(func() string { return harness.RenderLatency(f10) })
	var f11 []harness.Fig11Row
	if err := call("Fig11", func() (err error) { f11, err = harness.Fig11(opts); return }); err != nil {
		return err
	}
	render(func() string { return harness.RenderFig11(f11) })
	var et []harness.ExecTimeRow
	if err := call("ExecTime", func() (err error) { et, err = harness.ExecTime(opts); return }); err != nil {
		return err
	}
	render(func() string { return harness.RenderExecTime(et) })
	var prof []harness.ProfileRow
	if err := call("Profile", func() (err error) { prof, err = harness.Profile(opts); return }); err != nil {
		return err
	}
	render(func() string { return harness.RenderProfile(prof) })
	var vr []harness.VariationRow
	if err := call("Variation", func() (err error) { vr, err = harness.Variation(opts, 5); return }); err != nil {
		return err
	}
	render(func() string { return harness.RenderVariation(vr) })
	var gap []harness.GapRow
	if err := call("Gap", func() (err error) { gap, err = harness.Gap(opts); return }); err != nil {
		return err
	}
	render(func() string { return harness.RenderGap(gap) })
	out.wall += renderTime
	out.plans += tally.plans

	sp := lane.Span("bench.check")
	defer sp.End()
	// fig. 10 cells are checked on their Results; every other cell passes
	// by completing (a failing cell fails its experiment call above).
	for _, row := range f10 {
		for _, tech := range allTechs {
			chk.unit(checkResult(row.Benchmark+"/"+string(tech), tech, row.Counts[tech], suiteSamples))
		}
	}
	for _, ev := range tally.done {
		if ev.Experiment != "fig10" {
			chk.unit(ev.Err)
		}
	}
	// Tables repeat exactly, except the transform wall-clock exectime
	// reports, which is masked out of the comparison.
	masked := append([]harness.ExecTimeRow(nil), et...)
	for i := range masked {
		masked[i].Duration = 0
	}
	key := strings.Replace(tables.String(), harness.RenderExecTime(et), harness.RenderExecTime(masked), 1)
	if first, ok := s.tables[seed]; !ok {
		s.tables[seed] = key
	} else if first != key {
		chk.unit(fmt.Errorf("suite seed %d: tables differ from the first run", seed))
	} else {
		chk.unit(nil)
	}
	return nil
}

// protected runs monolithic checkpointed FERRUM and hybrid-EDDI campaigns
// over all eight benchmarks into one journal per pass. Detection is quick
// in protected binaries, so a plan's cost is mostly snapshot restore, a
// short suffix and the journal append. The programs run on their reference
// inputs (the paper's seed), as a user campaigning on a fixed program
// would; the run seed draws the fault plans. A benign plan runs to the
// program's end, so inputs of another size would move the per-plan cost
// this workload exists to measure.
type protected struct {
	seed  int64
	path  string
	cells []protCell
	// journalChecked records that a pass's journal was reloaded and
	// checked. Every pass writes the same records, so once is enough, and
	// the JSON reload would otherwise eat into the measuring time.
	journalChecked bool
}

type protCell struct {
	key  string
	tech harness.Technique
	tgt  fi.AsmTarget
}

func newProtected(seed int64, dir string) *protected {
	return &protected{seed: seed, path: filepath.Join(dir, "protected.journal")}
}

func (p *protected) composed() bool { return false }

// setup generates the reference inputs and builds both protected binaries
// of every benchmark.
func (p *protected) setup(*checker, func()) error {
	insts, err := instantiate(harness.DefaultSeed)
	if err != nil {
		return err
	}
	p.cells = p.cells[:0]
	for _, inst := range insts {
		for _, tech := range []harness.Technique{harness.Ferrum, harness.Hybrid} {
			build, err := harness.BuildTechnique(inst.Mod, tech)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", inst.Bench.Name, tech, err)
			}
			p.cells = append(p.cells, protCell{
				key:  fmt.Sprintf("protected/%s/%s", inst.Bench.Name, tech),
				tech: tech,
				tgt: fi.AsmTarget{
					Prog: build.Prog, MemSize: 1 << 20, Args: inst.Args,
					Setup: func(w fi.MemWriter) error { return inst.Setup(w) },
				},
			})
		}
	}
	return nil
}

func (p *protected) pass(ob *obs.Observer, chk *checker, idle func()) (passOut, error) {
	out := passOut{plans: len(p.cells) * protectedSamples}
	lane := ob.Cell("", 0)
	var j *fi.Journal
	err := timed(&out.wall, func() (err error) {
		sp := lane.Span("fi.journal")
		defer sp.End()
		j, err = fi.CreateJournal(p.path, fi.JournalMeta{
			Tool: "e2ebench", Exp: "protected", Seed: p.seed, Samples: protectedSamples,
		})
		return err
	})
	if err != nil {
		return out, err
	}
	j.Observe(ob)
	results := make([]fi.Result, len(p.cells))
	for i, c := range p.cells {
		idle()
		err := timed(&out.wall, func() (err error) {
			cx := ob.Cell(c.key, 0)
			sp := cx.Span("fi.RunAsmCampaign")
			defer sp.End()
			results[i], err = fi.RunAsmCampaign(c.tgt, fi.Campaign{
				Samples: protectedSamples, Seed: p.seed, Workers: 1,
				Journal: j, Key: c.key, Obs: cx,
			})
			return err
		})
		if err != nil {
			j.Close()
			return out, err
		}
	}
	err = timed(&out.wall, func() error {
		sp := lane.Span("fi.journal")
		defer sp.End()
		return j.Close()
	})
	if err != nil {
		return out, err
	}

	sp := lane.Span("bench.check")
	defer sp.End()
	for i, c := range p.cells {
		chk.unit(checkResult(c.key, c.tech, results[i], protectedSamples))
	}
	if p.journalChecked {
		return out, nil
	}
	p.journalChecked = true
	data, err := os.ReadFile(p.path)
	if err != nil {
		return out, err
	}
	st, err := fi.LoadJournalData(data, p.path)
	if err != nil {
		return out, err
	}
	for i, c := range p.cells {
		chk.unit(checkJournal(c.key, st, results[i]))
	}
	return out, nil
}

// composeRerun re-runs composed (fi.ComposeOn) fig. 10 cells against a
// section cache that set-up filled with a cold composed pass. A warm re-run
// serves every plan from the cache, so what remains is each cell's golden
// run, its checkpoint-recording run and the cache lookups.
type composeRerun struct {
	seed int64
	opts harness.Options
	cold []harness.Fig10Row
}

func newComposeRerun(seed int64) *composeRerun { return &composeRerun{seed: seed} }

func (c *composeRerun) composed() bool { return true }

// setup runs the cold composed pass into fresh build and section caches. It
// runs for seconds, so the host probe also runs after every cell.
func (c *composeRerun) setup(chk *checker, idle func()) error {
	opts := harness.Options{
		Samples: composeSamples, Seed: c.seed, Compose: fi.ComposeOn,
		Cache: harness.NewBuildCache(), SectionCache: compose.NewCache(),
	}
	withProbes := opts
	withProbes.Progress = func(ev harness.CellEvent) {
		if ev.Done {
			idle()
		}
	}
	rows, err := harness.Fig10(withProbes)
	if err != nil {
		return err
	}
	for _, row := range rows {
		for _, tech := range allTechs {
			chk.unit(checkResult("cold "+row.Benchmark+"/"+string(tech), tech, row.Counts[tech], composeSamples))
		}
	}
	c.opts, c.cold = opts, rows
	return nil
}

func (c *composeRerun) pass(ob *obs.Observer, chk *checker, idle func()) (passOut, error) {
	// The caches outlive the pass; when the harness binds them to this
	// pass's registry, each adds the counts it holds so far. The build
	// cache's own section cache binds too, and after an earlier traced pass
	// it shares that registry's counters with ours, so both are carried.
	bs := c.opts.Cache.Stats()
	ss, own := c.opts.SectionCache.CacheStats(), c.opts.Cache.Sections().CacheStats()
	out := passOut{plans: len(c.cold) * len(allTechs) * composeSamples, carried: map[string]int64{
		obs.MBuildHits: int64(bs.BuildHits), obs.MBuildMisses: int64(bs.BuildMisses),
		obs.MGoldenHits: int64(bs.GoldenHits), obs.MGoldenMisses: int64(bs.GoldenMisses),
		obs.MComposeSectionHits:   int64(ss.SectionHits + own.SectionHits),
		obs.MComposeSectionMisses: int64(ss.SectionMisses + own.SectionMisses),
		obs.MComposePlansServed:   int64(ss.PlansServed + own.PlansServed),
	}}
	tally := &cellTally{}
	opts := c.opts
	opts.Obs, opts.Progress = ob, tally.event
	var rows []harness.Fig10Row
	sp := ob.Cell("", 0).Span("harness.Fig10")
	err := timed(&out.wall, func() (err error) {
		rows, err = harness.Fig10(opts)
		return err
	})
	sp.End()
	if err != nil {
		return out, err
	}
	sp = ob.Cell("", 0).Span("bench.check")
	defer sp.End()
	for i, row := range rows {
		for _, tech := range allTechs {
			name := row.Benchmark + "/" + string(tech)
			chk.unit(errors.Join(
				checkResult(name, tech, row.Counts[tech], composeSamples),
				checkWarm(name, c.cold[i].Counts[tech], row.Counts[tech])))
		}
	}
	return out, nil
}
