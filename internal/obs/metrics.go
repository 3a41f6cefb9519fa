package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a no-op, which is what keeps disabled
// instrumentation off the hot path — call sites never branch on "enabled".
type Counter struct{ v atomic.Int64 }

// Add increments the counter; no-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current value; 0 on a nil receiver.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-written value (worker counts, effective K, ...).
// The zero value is ready; a nil *Gauge is a no-op.
type Gauge struct{ v atomic.Int64 }

// Set stores the value; no-op on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// SetMax raises the gauge to n if n is larger (high-water marks).
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current value; 0 on a nil receiver.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Bounds are inclusive
// upper bounds in ascending order; an implicit +Inf bucket catches the
// rest. All methods are safe for concurrent use; nil receivers are no-ops.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	n      atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample; no-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// AddBuckets folds a pre-bucketed distribution into the histogram: counts
// must follow the histogram's own geometry (len(bounds)+1 entries, the
// final one the +Inf bucket). Mismatched shapes are dropped rather than
// smeared across the wrong buckets. Nil receivers are no-ops.
func (h *Histogram) AddBuckets(counts []int64, sum float64, n int64) {
	if h == nil || len(counts) != len(h.counts) {
		return
	}
	for i := range counts {
		if counts[i] != 0 {
			h.counts[i].Add(counts[i])
		}
	}
	h.n.Add(n)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+sum)) {
			return
		}
	}
}

// HistSnapshot is one histogram's frozen state. Counts[i] is the number of
// observations ≤ Bounds[i]; the final element counts the +Inf bucket.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Quantile returns an upper-bound estimate of the q-quantile (0 ≤ q ≤ 1)
// from the bucket counts: the smallest bucket bound whose cumulative count
// reaches q·Count. The +Inf bucket reports the largest finite bound.
func (h HistSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Bounds[len(h.Bounds)-1]
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Registry is a process-wide (but injectable) name→metric table. All
// lookups memoise, so the same name always returns the same metric, and a
// metric handle resolved once can be used forever without further locking.
// A nil *Registry hands out nil metrics, which are no-ops — the off-path
// guarantee is structural, not conditional.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Nil
// registries return nil (a no-op counter).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Rebind moves the counter *dst into the registry under name: *dst
// becomes the registry's counter, carrying the count it held across. A
// counter already bound there, or a nil registry, leaves *dst as it is.
// Callers serialise it with every use of *dst.
func (r *Registry) Rebind(dst **Counter, name string) {
	if reg := r.Counter(name); reg != nil && *dst != reg {
		reg.Add((*dst).Load())
		*dst = reg
	}
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a frozen, serialisable view of a registry. Snapshots from
// different registries (e.g. per-shard runners) merge with Merge.
type Snapshot struct {
	Counters map[string]int64        `json:"counters,omitempty"`
	Gauges   map[string]int64        `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry's current values. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		hs := HistSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Sum:    math.Float64frombits(h.sum.Load()),
			Count:  h.n.Load(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Hists[name] = hs
	}
	return s
}

// Merge combines two snapshots: counters and histogram buckets add, gauges
// keep the maximum (they are high-water readings once frozen). The receiver
// is not modified.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]HistSnapshot{},
	}
	for k, v := range s.Counters {
		out.Counters[k] = v
	}
	for k, v := range o.Counters {
		out.Counters[k] += v
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range o.Gauges {
		if cur, ok := out.Gauges[k]; !ok || v > cur {
			out.Gauges[k] = v
		}
	}
	for k, v := range s.Hists {
		out.Hists[k] = v.clone()
	}
	for k, v := range o.Hists {
		cur, ok := out.Hists[k]
		if !ok || len(cur.Bounds) != len(v.Bounds) {
			out.Hists[k] = v.clone()
			continue
		}
		merged := cur.clone()
		for i := range v.Counts {
			merged.Counts[i] += v.Counts[i]
		}
		merged.Sum += v.Sum
		merged.Count += v.Count
		out.Hists[k] = merged
	}
	return out
}

func (h HistSnapshot) clone() HistSnapshot {
	return HistSnapshot{
		Bounds: append([]float64(nil), h.Bounds...),
		Counts: append([]int64(nil), h.Counts...),
		Sum:    h.Sum,
		Count:  h.Count,
	}
}
