package compose

import (
	"encoding/binary"
	"hash/fnv"

	"ferrum/internal/asm"
	"ferrum/internal/liveness"
)

// Keyer derives the program-dependent parts of section keys — code digests
// of function lists and the dead state at boundary locations — memoising
// every piece, so a composed campaign renders each function and runs each
// liveness analysis at most once however many sections it keys. A Keyer
// reads the program as it is when first asked and must live no longer than
// one campaign: a program edited in place would be served stale parts.
type Keyer struct {
	prog  *asm.Program
	index map[string]int // name -> first function of that name, as Program.Func resolves it
	fns   []fnParts
	used  []liveness.RegSet // UsedGPRs per function; nil until a DeadSets needs it

	digests map[string]uint64 // encoded function-index list -> code digest
	dead    map[loc]deadSets
	list    []byte // CodeDigest's key scratch
}

// fnParts is one function's memoised key parts, filled on first use.
type fnParts struct {
	text   []byte // name, NUL, then each instruction's labels and text
	flags  *liveness.FlagLiveness
	regs   *liveness.Liveness // CallPreserves liveness; nil when the function calls
	others liveness.RegSet    // GPRs some function of another name mentions
}

type loc struct{ fn, idx int }

type deadSets struct {
	regs  liveness.RegSet
	flags liveness.FlagSet
}

// NewKeyer returns a Keyer over prog.
func NewKeyer(prog *asm.Program) *Keyer {
	k := &Keyer{
		prog:    prog,
		index:   make(map[string]int, len(prog.Funcs)),
		fns:     make([]fnParts, len(prog.Funcs)),
		digests: map[string]uint64{},
		dead:    map[loc]deadSets{},
	}
	for i, f := range prog.Funcs {
		if _, dup := k.index[f.Name]; !dup {
			k.index[f.Name] = i
		}
	}
	return k
}

// CodeDigest fingerprints the code of the named functions: the fnv-64a
// digest of each function's name followed by the rendered text of its
// instructions, in list order. Unknown names contribute nothing. Rendered
// text is the right granularity — it captures opcodes, operands, labels and
// provenance-free structure while staying stable across process runs.
func (k *Keyer) CodeDigest(fns []string) uint64 {
	// Key the memo by the resolved function indices: the encoding is
	// prefix-free, so distinct lists never share a key.
	k.list = k.list[:0]
	for _, name := range fns {
		if i, ok := k.index[name]; ok {
			k.list = binary.AppendUvarint(k.list, uint64(i))
		}
	}
	if d, ok := k.digests[string(k.list)]; ok {
		return d
	}
	h := fnv.New64a()
	for _, name := range fns {
		if i, ok := k.index[name]; ok {
			h.Write(k.text(i))
		}
	}
	d := h.Sum64()
	k.digests[string(k.list)] = d
	return d
}

func (k *Keyer) text(i int) []byte {
	p := &k.fns[i]
	if p.text == nil {
		f := k.prog.Funcs[i]
		b := append([]byte(f.Name), 0)
		for _, in := range f.Insts {
			for _, l := range in.Labels {
				b = append(b, l...)
				b = append(b, ':')
			}
			b = append(b, in.String()...)
			b = append(b, '\n')
		}
		p.text = b
	}
	return p.text
}

// DeadSets computes the registers and flags whose corruption at the static
// location (fn, idx) — the golden boundary pc — the downstream execution
// provably never observes. A GPR is dead only when the intra-function
// dataflow (CallPreserves: liveness flows through calls untouched, the safe
// direction for deadness) reports it not live at idx, the function performs
// no calls (so no callee could read it before redefinition), and no other
// function in the program mentions it at all (so no later-executing code —
// including the caller after ret — can read it). Flags need no such escape
// condition: FlagsRead models call and ret as reading every flag, so a flag
// that could cross the function boundary is already live.
func (k *Keyer) DeadSets(fn string, idx int) (liveness.RegSet, liveness.FlagSet) {
	i, ok := k.index[fn]
	if !ok {
		return 0, 0
	}
	if d, ok := k.dead[loc{i, idx}]; ok {
		return d.regs, d.flags
	}
	p := k.analyse(i)
	var d deadSets
	if p.regs != nil {
		if live, ok := p.regs.LiveAt(idx); ok {
			for r := asm.RNone + 1; r < asm.NumReg; r++ {
				if !live.Has(r) && !p.others.Has(r) {
					d.regs.Add(r)
				}
			}
		}
	}
	if live, ok := p.flags.LiveAt(idx); ok {
		for fb := asm.Flag(0); fb < asm.NumFlag; fb++ {
			if !live.Has(fb) {
				d.flags.Add(fb)
			}
		}
	}
	k.dead[loc{i, idx}] = d
	return d.regs, d.flags
}

// analyse runs function i's liveness analyses once.
func (k *Keyer) analyse(i int) *fnParts {
	p := &k.fns[i]
	if p.flags != nil {
		return p
	}
	f := k.prog.Funcs[i]
	p.flags = liveness.AnalyzeFlags(f)
	for _, in := range f.Insts {
		if in.Op == asm.CALL {
			return p
		}
	}
	p.regs = liveness.AnalyzeCalls(f, liveness.CallPreserves)
	if k.used == nil {
		k.used = make([]liveness.RegSet, len(k.prog.Funcs))
		for j, g := range k.prog.Funcs {
			k.used[j] = liveness.UsedGPRs(g)
		}
	}
	for j, g := range k.prog.Funcs {
		if g.Name != f.Name {
			p.others.Union(k.used[j])
		}
	}
	return p
}
