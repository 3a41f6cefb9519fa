package fi

import (
	"fmt"

	"ferrum/internal/machine"
	"ferrum/internal/prune"
)

// PruneMode selects how much of the static (site, bit) classification a
// campaign exploits. Dead and masked classifications are exact — a pruned
// campaign's table is bit-identical to the full campaign's — while
// representative deduplication is statistical: one execution stands in for
// every sampled fault of the same (static instruction, bit) class, so the
// table is Wilson-interval-compatible rather than identical.
type PruneMode uint8

const (
	// PruneOff executes every sampled plan (the default).
	PruneOff PruneMode = iota
	// PruneExact skips dead and masked classes. Exact.
	PruneExact
	// PruneFull additionally executes one representative per
	// (static instruction, bit) class of live single-bit plans, weighting
	// its outcome by class cardinality. Statistical.
	PruneFull
)

// String names the mode.
func (m PruneMode) String() string {
	switch m {
	case PruneOff:
		return "off"
	case PruneExact:
		return "exact"
	case PruneFull:
		return "full"
	}
	return fmt.Sprintf("prune?%d", m)
}

// ParsePruneMode parses a -prune flag value.
func ParsePruneMode(s string) (PruneMode, error) {
	switch s {
	case "", "off":
		return PruneOff, nil
	case "exact":
		return PruneExact, nil
	case "full":
		return PruneFull, nil
	}
	return PruneOff, fmt.Errorf("fi: unknown prune mode %q (off|exact|full)", s)
}

// Set parses a -prune flag value into m, making *PruneMode a flag.Value.
func (m *PruneMode) Set(s string) (err error) {
	*m, err = ParsePruneMode(s)
	return err
}

// PruneSummary reports a pruned campaign's exact-count bookkeeping. The
// identity Planned == Executed + Dead + Masked + Deduped always holds.
type PruneSummary struct {
	Enabled  bool   `json:",omitempty"`
	Mode     string `json:",omitempty"`
	Planned  int    `json:",omitempty"` // sampled plans (Campaign.Samples)
	Executed int    `json:",omitempty"` // plans actually run (class representatives)
	Dead     int    `json:",omitempty"` // answered Benign: destination/bit not live
	Masked   int    `json:",omitempty"` // answered Benign: bit destroyed before use
	Deduped  int    `json:",omitempty"` // answered by their class representative
	Classes  int    `json:",omitempty"` // distinct live (static, bit) classes executed
}

// Plan-assignment sentinels for planPartition.assign: non-negative values
// are dense indices into exec.
const (
	assignDead   = -1
	assignMasked = -2
)

// planPartition is a campaign's pruned plan space: the dense execution
// list (representatives re-indexed 0..len(exec)-1 so the journal and
// outcome machinery work unchanged), the per-generation-index
// assignment back onto it, and the live equivalence classes in
// scheduler-consumable form.
type planPartition struct {
	exec    []plannedFault
	assign  []int32 // per generation index: dense exec index, or assign*
	classes []prune.Class
	summary PruneSummary
}

// partitionPlans classifies every sampled plan against the static analysis
// and builds the pruned execution list. plans must be in generation order.
// siteStatics maps dynamic site -> static instruction id (from the golden
// run); statics maps the id to its location and destination.
func partitionPlans(mode PruneMode, plans []plannedFault, siteStatics []int32,
	an *prune.Analysis, statics []machine.StaticInstr) (*planPartition, error) {
	part := &planPartition{
		assign:  make([]int32, len(plans)),
		summary: PruneSummary{Enabled: true, Mode: mode.String(), Planned: len(plans)},
	}
	classAt := map[prune.ClassKey]int{} // key -> index into part.classes
	for i, p := range plans {
		if p.idx != i {
			return nil, fmt.Errorf("fi: prune: plan %d out of generation order", i)
		}
		if p.site >= uint64(len(siteStatics)) {
			return nil, fmt.Errorf("fi: prune: site %d beyond recorded statics (%d)", p.site, len(siteStatics))
		}
		static := siteStatics[p.site]
		if static < 0 || int(static) >= len(statics) {
			return nil, fmt.Errorf("fi: prune: static id %d out of range", static)
		}
		si := an.At(statics[static].Fn, statics[static].Idx)
		kind := planKind(si, p)
		switch kind {
		case prune.Dead:
			part.assign[i] = assignDead
			part.summary.Dead++
			continue
		case prune.Masked:
			part.assign[i] = assignMasked
			part.summary.Masked++
			continue
		}
		// Live: execute, or fold onto an already-seen representative.
		if mode == PruneFull && len(p.extra) == 0 {
			key := prune.ClassKey{Static: static, Bit: uint16(p.bit)}
			if ci, ok := classAt[key]; ok {
				cl := &part.classes[ci]
				cl.Members = append(cl.Members, i)
				part.assign[i] = part.assign[cl.Members[0]]
				part.summary.Deduped++
				continue
			}
			classAt[key] = len(part.classes)
			part.classes = append(part.classes, prune.Class{
				Kind: prune.Live, Key: key, Members: []int{i},
			})
		}
		dense := int32(len(part.exec))
		part.exec = append(part.exec, plannedFault{
			idx: int(dense), site: p.site, bit: p.bit, extra: p.extra,
		})
		part.assign[i] = dense
	}
	part.summary.Executed = len(part.exec)
	part.summary.Classes = len(part.classes)
	return part, nil
}

// planKind combines the per-bit classifications of a plan's flipped bits:
// any live bit makes the plan live; an all-dead plan is dead; a mix of
// dead and masked bits is masked (still exactly Benign — every flipped bit
// is individually proven inert, and bit flips are independent XORs).
func planKind(si prune.SiteInfo, p plannedFault) prune.Kind {
	kind := si.Classify(p.bit)
	for _, b := range p.extra {
		switch si.Classify(b) {
		case prune.Live:
			return prune.Live
		case prune.Masked:
			if kind == prune.Dead {
				kind = prune.Masked
			}
		}
	}
	return kind
}

// expandedOutcomes maps dense executed outcomes back onto the full
// generation-ordered plan space: pruned plans are Benign by construction,
// deduplicated plans take their representative's outcome. Without a
// partition it returns the executed outcomes as they are.
func (f *campaign) expandedOutcomes() []Outcome {
	if f.part == nil {
		out := make([]Outcome, len(f.recs))
		for i, r := range f.recs {
			out[i] = r.Outcome
		}
		return out
	}
	out := make([]Outcome, len(f.orig))
	for i := range f.orig {
		if oi := f.part.assign[i]; oi >= 0 {
			out[i] = f.recs[oi].Outcome
		} else {
			out[i] = Benign
		}
	}
	return out
}
