package compose

import (
	"encoding/binary"
	"hash/fnv"
	"sync"

	"ferrum/internal/asm"
	"ferrum/internal/liveness"
)

// Memo holds the key parts of one program that outlive a campaign: the
// code digest of each function list and the dead sets at each boundary
// location. It holds only those digests and sets, never the rendered text
// or the liveness they were derived from, so it stays small however many
// campaigns key sections of the program. A Memo is safe for concurrent
// use. It answers for the program it first keyed: a program edited in
// place needs a new one.
type Memo struct {
	mu      sync.Mutex
	digests map[string]uint64 // encoded function-index list -> code digest
	dead    map[loc]deadSets
}

// NewMemo returns an empty Memo.
func NewMemo() *Memo {
	return &Memo{digests: map[string]uint64{}, dead: map[loc]deadSets{}}
}

// Keyer derives the program-dependent parts of section keys — code digests
// of function lists and the dead state at boundary locations. It renders
// each function and runs each liveness analysis at most once, and records
// every part it derives in its Memo, where a later Keyer over the same
// Memo finds it without rendering or analysing anything. A Keyer lives for
// one campaign; its rendered text and liveness go with it.
type Keyer struct {
	prog  *asm.Program
	memo  *Memo
	index map[string]int // name -> first function of that name, as Program.Func resolves it
	fns   []fnParts
	used  []liveness.RegSet // UsedGPRs per function; nil until a DeadSets needs it
	list  []byte            // CodeDigest's key scratch
}

// fnParts is one function's key parts, filled on first use.
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

// NewKeyer returns a Keyer over prog that records into memo, or into a
// Memo of its own when memo is nil.
func NewKeyer(prog *asm.Program, memo *Memo) *Keyer {
	if memo == nil {
		memo = NewMemo()
	}
	k := &Keyer{
		prog:  prog,
		memo:  memo,
		index: make(map[string]int, len(prog.Funcs)),
		fns:   make([]fnParts, len(prog.Funcs)),
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
	m := k.memo
	m.mu.Lock()
	d, ok := m.digests[string(k.list)]
	m.mu.Unlock()
	if ok {
		return d
	}
	h := fnv.New64a()
	for _, name := range fns {
		if i, ok := k.index[name]; ok {
			h.Write(k.text(i))
		}
	}
	d = h.Sum64()
	m.mu.Lock()
	m.digests[string(k.list)] = d
	m.mu.Unlock()
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
	m := k.memo
	m.mu.Lock()
	d, ok := m.dead[loc{i, idx}]
	m.mu.Unlock()
	if ok {
		return d.regs, d.flags
	}
	p := k.analyse(i)
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
	m.mu.Lock()
	m.dead[loc{i, idx}] = d
	m.mu.Unlock()
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
