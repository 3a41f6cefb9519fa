package machine

import (
	"fmt"
	"sort"
	"strings"

	"ferrum/internal/asm"
)

// Profile attributes a run's dynamic instructions and cycle costs to
// opcodes and to instruction provenance (program code vs. duplicates,
// checks, staging and spills inserted by a protection pass). It is how the
// harness explains *where* each technique's overhead goes.
type Profile struct {
	OpCount  map[asm.Op]uint64
	TagCount map[asm.Tag]uint64
	// TagScalar and TagVector accumulate the scalar- and vector-unit
	// costs charged to instructions of each provenance tag. Because the
	// units overlap within blocks, these sum to more than Result.Cycles;
	// they measure issued work per unit, not wall-clock.
	TagScalar map[asm.Tag]float64
	TagVector map[asm.Tag]float64
}

// profile is the run-time recorder behind the exported Profile. The hot
// path indexes dense arrays by opcode and provenance tag — no map
// operations per dynamic instruction — and export converts to the exported
// map form once, when the run finishes. Decode admits only opcodes with a
// fused form and asm.Validate only tags below asm.NumTags, so every index
// is in range.
type profile struct {
	opCount   [asm.NumOps]uint64
	tagCount  [asm.NumTags]uint64
	tagScalar [asm.NumTags]float64
	tagVector [asm.NumTags]float64
}

func (p *profile) record(fi *flatInst) {
	p.opCount[fi.in.Op]++
	t := fi.in.Tag
	p.tagCount[t]++
	p.tagScalar[t] += fi.cost.scalar
	p.tagVector[t] += fi.cost.vector
}

// export converts the dense counters to the exported map form. A nil
// receiver (profiling disabled) exports as nil.
func (p *profile) export() *Profile {
	if p == nil {
		return nil
	}
	// Size the maps exactly before filling them: export runs at the end of
	// every profiled run (every campaign golden run, every overhead-profile
	// iteration), and growing four maps from zero rehashed each one several
	// times on that path.
	nOps, nTags := 0, 0
	for _, c := range p.opCount {
		if c != 0 {
			nOps++
		}
	}
	for _, c := range p.tagCount {
		if c != 0 {
			nTags++
		}
	}
	out := &Profile{
		OpCount:   make(map[asm.Op]uint64, nOps),
		TagCount:  make(map[asm.Tag]uint64, nTags),
		TagScalar: make(map[asm.Tag]float64, nTags),
		TagVector: make(map[asm.Tag]float64, nTags),
	}
	for op, c := range p.opCount {
		if c != 0 {
			out.OpCount[asm.Op(op)] = c
		}
	}
	for t, c := range p.tagCount {
		if c != 0 {
			out.TagCount[asm.Tag(t)] = c
			out.TagScalar[asm.Tag(t)] = p.tagScalar[t]
			out.TagVector[asm.Tag(t)] = p.tagVector[t]
		}
	}
	return out
}

// DynInsts reports the total dynamic instruction count in the profile.
func (p *Profile) DynInsts() uint64 {
	var n uint64
	for _, c := range p.TagCount {
		n += c
	}
	return n
}

// TagFraction reports the fraction of dynamic instructions with the tag.
func (p *Profile) TagFraction(t asm.Tag) float64 {
	total := p.DynInsts()
	if total == 0 {
		return 0
	}
	return float64(p.TagCount[t]) / float64(total)
}

// TopOps returns the n most-executed opcodes with counts, descending.
func (p *Profile) TopOps(n int) []struct {
	Op    asm.Op
	Count uint64
} {
	type oc struct {
		Op    asm.Op
		Count uint64
	}
	all := make([]oc, 0, len(p.OpCount))
	for op, c := range p.OpCount {
		all = append(all, oc{op, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Op < all[j].Op
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]struct {
		Op    asm.Op
		Count uint64
	}, n)
	for i := 0; i < n; i++ {
		out[i] = struct {
			Op    asm.Op
			Count uint64
		}{all[i].Op, all[i].Count}
	}
	return out
}

// String summarises the profile by provenance tag.
func (p *Profile) String() string {
	var b strings.Builder
	tags := []asm.Tag{asm.TagProgram, asm.TagDup, asm.TagCheck, asm.TagStage, asm.TagSpill, asm.TagRuntime}
	total := p.DynInsts()
	fmt.Fprintf(&b, "dyn insts %d:", total)
	for _, t := range tags {
		if p.TagCount[t] == 0 {
			continue
		}
		fmt.Fprintf(&b, " %s %.1f%%", t, p.TagFraction(t)*100)
	}
	return b.String()
}
