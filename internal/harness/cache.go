package harness

import (
	"sync"
	"sync/atomic"

	"ferrum/internal/compose"
	"ferrum/internal/machine"
	"ferrum/internal/obs"
	"ferrum/internal/rodinia"
)

// buildKey identifies one memoisable build: a program. Every instance of a
// benchmark comes from rodinia.ByName → Instantiate, which parses the
// benchmark's one fixed source whatever the scale and seed; those shape
// only Args and the memory image. BuildTechniqueOpts reads nothing but the
// module, and a Build holds only what it derives from it (Prog,
// ProtectedIR, Transform and the pass reports). So a build is a function of
// (benchmark, technique, optimize), and every input of the benchmark shares
// it (TestBuildIndependentOfInput).
type buildKey struct {
	bench    string
	tech     Technique
	optimize bool
}

// instKey identifies one benchmark input.
type instKey struct {
	bench string
	scale int
	seed  int64
}

// BuildCache memoises benchmark instantiation, per-technique builds, their
// decoded programs and golden runs across experiment functions. Sharing one
// cache across a whole `reprod -exp all` invocation (Options.Cache)
// compiles and decodes each (benchmark, technique, optimize) program once,
// whichever inputs and experiments use it, and runs each golden once per
// (program, input); the hit/miss counters prove it in the suite summary.
//
// A BuildCache is safe for concurrent use: concurrent cells asking for the
// same key block on a single computation (sync.Once per entry) instead of
// duplicating work. Cached values — instances, builds, decoded programs,
// golden outputs — are treated as immutable by every consumer. A decoded
// program holds no memory buffer (machines instantiated from it own and
// release theirs), so dropping the cache pins nothing.
type BuildCache struct {
	mu     sync.Mutex
	insts  map[instKey]*instEntry
	builds map[buildKey]*buildEntry
	// sections memoises compositional campaigns' per-section propagation
	// tables (keyed by section content fingerprint inside the compose
	// cache). It rides in the BuildCache so one suite-wide cache gives every
	// experiment both build reuse and section reuse.
	sections *compose.Cache

	// Hit/miss counters. They start as standalone obs counters so an
	// unobserved cache still counts; Observe rebinds them to a registry,
	// which is where the suite summary and the NDJSON metrics record read
	// them from. CacheStats remains as a thin read adapter.
	instances    *obs.Counter
	buildHits    *obs.Counter
	buildMisses  *obs.Counter
	goldenHits   *obs.Counter
	goldenMisses *obs.Counter
}

type instEntry struct {
	once sync.Once
	inst *rodinia.Instance
	err  error
}

// buildEntry is one build and, decoded on first use, its program. It also
// keeps the program's compose key parts, which asm campaigns on the build
// leave for the next one, and one record per input it ran on.
type buildEntry struct {
	once  sync.Once
	build *Build
	err   error

	decOnce sync.Once
	dec     *machine.Decoded
	decErr  error

	keys     *compose.Memo
	inputsMu sync.Mutex
	inputs   map[instKey]*inputEntry
}

// inputEntry is what the cache keeps of one build on one input: its golden
// run, run on first use, and the golden site count the last asm campaign
// there reported, the hint that starts the next one's checkpoint schedule
// at its K (fi.AsmTarget).
type inputEntry struct {
	once  sync.Once
	g     golden
	err   error
	sites atomic.Uint64
}

// input returns the build's record of the input at, creating it empty.
func (e *buildEntry) input(at instKey) *inputEntry {
	e.inputsMu.Lock()
	defer e.inputsMu.Unlock()
	in := e.inputs[at]
	if in == nil {
		in = &inputEntry{}
		e.inputs[at] = in
	}
	return in
}

// NewBuildCache returns an empty cache.
func NewBuildCache() *BuildCache {
	return &BuildCache{
		insts:        map[instKey]*instEntry{},
		builds:       map[buildKey]*buildEntry{},
		sections:     compose.NewCache(),
		instances:    &obs.Counter{},
		buildHits:    &obs.Counter{},
		buildMisses:  &obs.Counter{},
		goldenHits:   &obs.Counter{},
		goldenMisses: &obs.Counter{},
	}
}

// Observe rebinds the cache's counters to the observer's registry under the
// canonical cache.* names, carrying any counts accumulated so far across.
// Idempotent for a given observer (the registry memoises by name); must not
// be called concurrently with cache use — the harness wires it up in
// Options.withDefaults, before any cells run.
func (c *BuildCache) Observe(o *obs.Observer) {
	if o == nil || o.Reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	o.Reg.Rebind(&c.instances, obs.MInstances)
	o.Reg.Rebind(&c.buildHits, obs.MBuildHits)
	o.Reg.Rebind(&c.buildMisses, obs.MBuildMisses)
	o.Reg.Rebind(&c.goldenHits, obs.MGoldenHits)
	o.Reg.Rebind(&c.goldenMisses, obs.MGoldenMisses)
	c.sections.Observe(o)
}

// Sections returns the cache's compose section-table cache.
func (c *BuildCache) Sections() *compose.Cache {
	if c == nil {
		return nil
	}
	return c.sections
}

// CacheStats is a snapshot of the cache's hit/miss counters. Misses count
// distinct computations performed; hits count computations avoided.
type CacheStats struct {
	BuildHits    int
	BuildMisses  int
	GoldenHits   int
	GoldenMisses int
}

// Stats snapshots the counters. It is the legacy read adapter kept for
// callers that predate the obs registry; observed caches report the same
// values under the cache.* names in Registry.Snapshot.
func (c *BuildCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		BuildHits:    int(c.buildHits.Load()),
		BuildMisses:  int(c.buildMisses.Load()),
		GoldenHits:   int(c.goldenHits.Load()),
		GoldenMisses: int(c.goldenMisses.Load()),
	}
}

// instance returns the memoised benchmark instance for (bench, scale, seed).
func (c *BuildCache) instance(bench *rodinia.Benchmark, scale int, seed int64) (*rodinia.Instance, error) {
	key := instKey{bench.Name, scale, seed}
	c.mu.Lock()
	e, ok := c.insts[key]
	if !ok {
		e = &instEntry{}
		c.insts[key] = e
	}
	if !ok {
		c.instances.Add(1)
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.inst, e.err = bench.Instantiate(scale, seed)
	})
	return e.inst, e.err
}

// lookup returns the build entry for the instance's benchmark under the
// given technique and options, creating it unbuilt.
func (c *BuildCache) lookup(inst *rodinia.Instance, tech Technique, bo BuildOptions) *buildEntry {
	key := buildKey{inst.Bench.Name, tech, bo.Optimize}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.builds[key]
	if !ok {
		e = &buildEntry{keys: compose.NewMemo(), inputs: map[instKey]*inputEntry{}}
		c.builds[key] = e
	}
	return e
}

// memo runs compute under once and counts the call: a miss when it ran
// compute, a hit when another call had.
func memo(once *sync.Once, hits, misses *obs.Counter, compute func()) {
	ran := false
	once.Do(func() {
		ran = true
		compute()
	})
	if ran {
		misses.Add(1)
	} else {
		hits.Add(1)
	}
}

// entry returns the memoised build entry for the instance's benchmark under
// the given technique and options, building it on first use.
func (c *BuildCache) entry(inst *rodinia.Instance, tech Technique, bo BuildOptions) *buildEntry {
	e := c.lookup(inst, tech, bo)
	memo(&e.once, c.buildHits, c.buildMisses, func() {
		e.build, e.err = BuildTechniqueOpts(inst.Mod, tech, bo)
	})
	return e
}

// build returns the memoised BuildTechniqueOpts result for the instance's
// benchmark under the given technique and options.
func (c *BuildCache) build(inst *rodinia.Instance, tech Technique, bo BuildOptions) (*Build, error) {
	e := c.entry(inst, tech, bo)
	return e.build, e.err
}

// decoded returns the memoised build's decoded program, decoding it on
// first use.
func (c *BuildCache) decoded(inst *rodinia.Instance, tech Technique, bo BuildOptions) (*machine.Decoded, error) {
	e := c.entry(inst, tech, bo)
	if e.err != nil {
		return nil, e.err
	}
	e.decOnce.Do(func() {
		e.dec, e.decErr = machine.Decode(e.build.Prog)
	})
	return e.dec, e.decErr
}

// golden returns the memoised golden run (cycles and dynamic
// instructions) of the instance's build under the given technique and
// options, on the input (scale, seed).
func (c *BuildCache) golden(inst *rodinia.Instance, scale int, seed int64, tech Technique, bo BuildOptions) (golden, error) {
	in := c.lookup(inst, tech, bo).input(instKey{inst.Bench.Name, scale, seed})
	memo(&in.once, c.goldenHits, c.goldenMisses, func() {
		var dec *machine.Decoded
		if dec, in.err = c.decoded(inst, tech, bo); in.err != nil {
			return
		}
		var res machine.Result
		if res, in.err = runGolden(nil, inst, dec, false); in.err == nil {
			in.g = golden{cycles: res.Cycles, dyn: res.DynInsts}
		}
	})
	return in.g, in.err
}
