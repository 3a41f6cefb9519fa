package fi

import "sort"

// Detection latency is the paper's "fast" in fast error detection made
// measurable: for every injected fault, the distance between the injection
// instant and the run's terminal event — a detector trap, a crash, the hang
// cutoff, or a normal exit. Assembly-level campaigns measure it in machine
// cycles (the dual-issue cycle model), IR-level campaigns in retired IR
// instructions; LatencySummary.Unit names which.
//
// Latencies aggregate over executed plans only: plans answered statically
// by pruning, or replayed from a journal cell record, contribute their
// journaled histograms but never a fresh observation. Everything here is
// plain (non-atomic) bookkeeping built after the injection loop — the
// per-plan hot path only carries a float64 out of the engine.

// LatencyBuckets are the shared histogram bounds for detection latency:
// powers of two from 1 to 2^20, inclusive upper bounds, with an implicit
// +Inf bucket. One fixed geometry everywhere — fi.Result, the obs
// registry, the /metrics exposition and fistat's journal replay — is what
// makes the four surfaces reconcile count-for-count.
var LatencyBuckets = func() []float64 {
	b := make([]float64, 0, 21)
	for v := 1.0; v <= 1<<20; v *= 2 {
		b = append(b, v)
	}
	return b
}()

// LatencyHist is a fixed-bucket latency histogram over LatencyBuckets.
// Counts[i] holds observations ≤ LatencyBuckets[i]; the final element is
// the +Inf bucket. Counts is nil until the first observation, so empty
// histograms serialise to nothing in journal cell records.
type LatencyHist struct {
	Counts []int64 `json:"counts,omitempty"`
	Sum    float64 `json:"sum,omitempty"`
	N      int64   `json:"n,omitempty"`
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`
}

// Observe records one latency sample.
func (h *LatencyHist) Observe(v float64) {
	if h.Counts == nil {
		h.Counts = make([]int64, len(LatencyBuckets)+1)
	}
	h.Counts[sort.SearchFloat64s(LatencyBuckets, v)]++
	h.Sum += v
	if h.N == 0 || v < h.Min {
		h.Min = v
	}
	if h.N == 0 || v > h.Max {
		h.Max = v
	}
	h.N++
}

// Merge folds another histogram into this one. Histograms with a different
// bucket count (a foreign journal) are ignored rather than misaligned.
func (h *LatencyHist) Merge(o LatencyHist) {
	if o.N == 0 {
		return
	}
	if h.Counts == nil {
		h.Counts = make([]int64, len(o.Counts))
	}
	if len(h.Counts) != len(o.Counts) {
		return
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Sum += o.Sum
	if h.N == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.N += o.N
}

// Mean returns the average observed latency (0 when empty).
func (h LatencyHist) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// Quantile returns an upper-bound estimate of the q-quantile from the
// bucket counts: the smallest bucket bound whose cumulative count reaches
// q·N. The +Inf bucket reports the observed maximum.
func (h LatencyHist) Quantile(q float64) float64 {
	if h.N == 0 {
		return 0
	}
	target := int64(float64(h.N)*q + 0.5)
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			if i < len(LatencyBuckets) {
				return LatencyBuckets[i]
			}
			return h.Max
		}
	}
	return h.Max
}

// LatencySummary is a campaign's detection-latency telemetry: one
// histogram per outcome class, in engine units.
type LatencySummary struct {
	// Unit is "cycles" for assembly-level campaigns (machine cycle model)
	// and "insts" for IR-level campaigns (retired IR instructions); empty
	// on results that predate latency telemetry (old journal cell records).
	Unit      string                   `json:"unit,omitempty"`
	ByOutcome [numOutcomes]LatencyHist `json:"by_outcome"`
}

// Observe records one plan's latency under its outcome class.
func (s *LatencySummary) Observe(o Outcome, v float64) { s.ByOutcome[o].Observe(v) }

// Merge folds another summary into this one; an empty receiver adopts the
// other's unit. Mixed units refuse to merge (nothing sensible to report).
func (s *LatencySummary) Merge(o LatencySummary) {
	if o.N() == 0 {
		return
	}
	if s.Unit == "" {
		s.Unit = o.Unit
	}
	if s.Unit != o.Unit {
		return
	}
	for i := range s.ByOutcome {
		s.ByOutcome[i].Merge(o.ByOutcome[i])
	}
}

// N is the total number of latency observations across all outcomes.
func (s LatencySummary) N() int64 {
	var n int64
	for i := range s.ByOutcome {
		n += s.ByOutcome[i].N
	}
	return n
}

// Hist returns the histogram for one outcome class.
func (s LatencySummary) Hist(o Outcome) LatencyHist { return s.ByOutcome[o] }

// aggregateLatency builds the per-outcome latency summary from executed
// plan records: every plan in generation order, or under pruning the dense
// executed plan set.
func aggregateLatency(unit string, recs []PlanRecord) LatencySummary {
	s := LatencySummary{Unit: unit}
	for _, r := range recs {
		if r.HasLat {
			s.ByOutcome[r.Outcome].Observe(r.Lat)
		}
	}
	return s
}
