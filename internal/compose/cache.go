package compose

import (
	"sync"

	"ferrum/internal/obs"
)

// Class grades how robust a cached plan result is to program edits outside
// its own section.
type Class uint8

const (
	// ClassLocal results are valid whenever the section key matches: the
	// plan terminated inside the section (crash, detect, hang), or reached
	// the boundary with bit-exact clean machine state — Benign if the output
	// prefix matched golden, SDC if it differed (the downstream, whatever it
	// now is, appends the same suffix to both prefixes).
	ClassLocal Class = iota
	// ClassOutput results exited the program early (OutcomeOK) inside the
	// section. The stored OutDigest fingerprints the faulty final output;
	// at reuse time the plan is Benign iff that digest equals the current
	// golden output digest, else SDC — so the entry survives golden-output
	// changes instead of being invalidated by them.
	ClassOutput
	// ClassGlobal results depended on downstream context: a boundary verdict
	// tolerated via dead registers/flags (deadness is a property of the
	// downstream code) or an end-to-end fallback run. They are valid only
	// while the whole-program digest matches Table.GlobalDigest.
	ClassGlobal
)

// CachedPlan is one plan's recorded result in a section propagation table.
// Site/Bit double-check plan identity — the section key already pins the
// seeded plan sequence, so a mismatch means a bug, not a stale entry.
type CachedPlan struct {
	Site     uint64
	Bit      uint16
	Outcome  uint8
	Lat      float64
	HasLat   bool
	Fallback bool
	// Boundary marks a plan resolved at the section boundary; Lat then
	// stores only the injection→boundary distance, and the serving campaign
	// adds the CURRENT golden tail (golden cycles − section exit cycles),
	// because the tail depends on downstream code the entry stays valid
	// across.
	Boundary  bool
	Class     Class
	OutDigest uint64
}

// Table is one section's propagation table: the per-plan results, plus the
// whole-program digest its ClassGlobal entries were measured under.
type Table struct {
	GlobalDigest uint64
	Plans        []CachedPlan
}

// Cache maps section fingerprints to propagation tables. It is safe for
// concurrent use and follows the BuildCache counter idiom: counters start
// standalone so an unobserved cache still counts, and Observe rebinds them
// into a registry.
type Cache struct {
	mu     sync.Mutex
	tables map[uint64]*Table

	sectionHits   *obs.Counter
	sectionMisses *obs.Counter
	plansServed   *obs.Counter
}

// NewCache returns an empty section-table cache.
func NewCache() *Cache {
	return &Cache{
		tables:        map[uint64]*Table{},
		sectionHits:   &obs.Counter{},
		sectionMisses: &obs.Counter{},
		plansServed:   &obs.Counter{},
	}
}

// Get looks up a section table by fingerprint, counting the hit or miss.
// The returned table is shared and must be treated as immutable.
func (c *Cache) Get(key uint64) *Table {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	t := c.tables[key]
	if t != nil {
		c.sectionHits.Add(1)
	} else {
		c.sectionMisses.Add(1)
	}
	c.mu.Unlock()
	return t
}

// Put stores a freshly measured section table. The cache takes ownership.
func (c *Cache) Put(key uint64, t *Table) {
	if c == nil || t == nil {
		return
	}
	c.mu.Lock()
	c.tables[key] = t
	c.mu.Unlock()
}

// Served counts plans answered from cached tables instead of executed.
func (c *Cache) Served(n int) {
	if c == nil || n <= 0 {
		return
	}
	c.plansServed.Add(int64(n))
}

// Len reports the number of cached section tables.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.tables)
}

// Clone returns an independent cache holding the same (shared, immutable)
// tables with fresh zero counters. Benchmarks use it to replay a warm cache
// without the replay's own insertions leaking into the next iteration.
func (c *Cache) Clone() *Cache {
	nc := NewCache()
	if c == nil {
		return nc
	}
	c.mu.Lock()
	for k, t := range c.tables {
		nc.tables[k] = t
	}
	c.mu.Unlock()
	return nc
}

// Observe rebinds the cache's counters to the observer's registry under the
// canonical compose.cache_* names, carrying accumulated counts across. Must
// not race with cache use; the harness calls it while wiring Options.
func (c *Cache) Observe(o *obs.Observer) {
	if c == nil || o == nil || o.Reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	o.Reg.Rebind(&c.sectionHits, obs.MComposeSectionHits)
	o.Reg.Rebind(&c.sectionMisses, obs.MComposeSectionMisses)
	o.Reg.Rebind(&c.plansServed, obs.MComposePlansServed)
}

// Stats is a snapshot of the cache's counters for tests and summaries.
type Stats struct {
	SectionHits   int
	SectionMisses int
	PlansServed   int
}

// CacheStats snapshots the counters.
func (c *Cache) CacheStats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		SectionHits:   int(c.sectionHits.Load()),
		SectionMisses: int(c.sectionMisses.Load()),
		PlansServed:   int(c.plansServed.Load()),
	}
}
