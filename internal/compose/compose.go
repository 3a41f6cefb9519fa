// Package compose implements the compositional half of ROADMAP item 1, after
// FastFlip (PAPERS.md): partition a program into sections at the golden-run
// checkpoint boundaries, measure each section's error propagation once, and
// compose whole-program outcome distributions. The package is deliberately
// policy-free — it provides the section fingerprints, boundary-descriptor
// classification, budget allocation, and the per-section propagation-table
// cache; internal/fi owns the campaign loop that uses them.
package compose

import (
	"hash/fnv"

	"ferrum/internal/liveness"
	"ferrum/internal/machine"
)

// Verdict is the composition-time meaning of a section-boundary descriptor.
type Verdict uint8

const (
	// VerdictBenign: the error dissipated (or survives only in state the
	// downstream provably never reads) and the output prefix matches golden,
	// so the whole-program outcome is Benign.
	VerdictBenign Verdict = iota
	// VerdictSDC: the machine state at the boundary is clean modulo dead
	// state but the output prefix already differs from golden. The downstream
	// appends the golden suffix to a wrong prefix, so the final output is
	// wrong with no detection left to fire: SDC.
	VerdictSDC
	// VerdictFallback: the descriptor is ambiguous (control-flow, memory,
	// vector or live-register divergence) — the plan must run end-to-end.
	VerdictFallback
)

// String names the verdict for tables and logs.
func (v Verdict) String() string {
	switch v {
	case VerdictBenign:
		return "benign"
	case VerdictSDC:
		return "sdc"
	case VerdictFallback:
		return "fallback"
	}
	return "unknown"
}

// Classify maps a boundary diff to a composition verdict. deadRegs and
// deadFlags are the state the downstream section provably never reads
// (Keyer.DeadSets at the boundary's static location); differences confined
// to them are tolerated. exact reports that NO difference was tolerated —
// the machine state matched golden bit for bit — which is what makes the
// verdict robust to edits of the downstream sections (see Class).
func Classify(d machine.BoundaryDiff, deadRegs liveness.RegSet, deadFlags liveness.FlagSet) (verdict Verdict, exact bool) {
	if !d.Comparable || d.PC || d.Dyn || d.Mem || d.XMM {
		return VerdictFallback, false
	}
	for _, r := range d.GPRs {
		if !deadRegs.Has(r) {
			return VerdictFallback, false
		}
	}
	for _, f := range d.Flags {
		if !deadFlags.Has(f) {
			return VerdictFallback, false
		}
	}
	exact = len(d.GPRs) == 0 && len(d.Flags) == 0
	if d.Output {
		return VerdictSDC, exact
	}
	return VerdictBenign, exact
}

// Mix folds words into one fnv-64a digest; the building block for every
// fingerprint in this package.
func Mix(vals ...uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vals {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		buf[4] = byte(v >> 32)
		buf[5] = byte(v >> 40)
		buf[6] = byte(v >> 48)
		buf[7] = byte(v >> 56)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// SectionSeed derives a section-local RNG seed from the campaign seed and
// the section's site range. Deterministic in the section identity, not its
// ordinal, so inserting a section upstream does not reshuffle the plans of
// the sections after it.
func SectionSeed(seed int64, start, end uint64) int64 {
	return int64(Mix(uint64(seed), start, end, 0x5ec7105eed))
}

// Alloc splits a total sample budget across sections proportionally to
// their weights (site counts) by largest remainder, so the per-section
// budgets always sum exactly to total. Zero-weight sections get zero.
func Alloc(total int, weights []uint64) []int {
	n := make([]int, len(weights))
	if total <= 0 || len(weights) == 0 {
		return n
	}
	var sum uint64
	for _, w := range weights {
		sum += w
	}
	if sum == 0 {
		return n
	}
	given := 0
	rems := make([]uint64, len(weights))
	for i, w := range weights {
		q := uint64(total) * w
		n[i] = int(q / sum)
		rems[i] = q % sum
		given += n[i]
	}
	for given < total {
		best := -1
		for i, r := range rems {
			if weights[i] == 0 {
				continue
			}
			if best < 0 || r > rems[best] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		n[best]++
		rems[best] = 0
		given++
	}
	return n
}

// FnsInRange returns the (deduplicated, first-execution-ordered) names of
// the functions whose golden execution overlaps the site range [start, end).
// Spans are conservative: a span touching the range at either edge counts,
// so zero-site functions executing inside a section still pin that section's
// fingerprint to their code.
func FnsInRange(spans []machine.FnSpan, start, end uint64) []string {
	var fns []string
	seen := map[string]bool{}
	for _, sp := range spans {
		if sp.Start > end || sp.End < start {
			continue
		}
		if !seen[sp.Fn] {
			seen[sp.Fn] = true
			fns = append(fns, sp.Fn)
		}
	}
	return fns
}

// OutputDigest fingerprints an output stream.
func OutputDigest(out []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range out {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		buf[4] = byte(v >> 32)
		buf[5] = byte(v >> 40)
		buf[6] = byte(v >> 48)
		buf[7] = byte(v >> 56)
		h.Write(buf[:])
	}
	return h.Sum64()
}
