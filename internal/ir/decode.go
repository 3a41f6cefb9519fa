package ir

import (
	"fmt"
	"sort"
)

// This file is the interpreter's load-time decode stage. NewInterp runs a
// register-numbering pass over every function: each parameter and each named
// instruction result is assigned a dense frame slot, branch and call targets
// are resolved to block/function indices, and constants are pre-converted to
// their uint64 form. The run loop then executes decoded instructions against
// a flat []uint64 frame — no map lookups and no string comparisons per
// dynamic instruction. Decoding is purely a representation change: the
// decoded program computes bit-identical results, site counts and crash
// messages to the name-keyed interpreter it replaced.

// dval is a decoded operand: a frame slot or an inline constant.
type dval struct {
	slot int32 // >= 0: index into the frame's registers; < 0: constant
	c    uint64
}

// get reads the operand against a frame's registers.
func (v dval) get(regs []uint64) uint64 {
	if v.slot >= 0 {
		return regs[v.slot]
	}
	return v.c
}

// dinst is a decoded instruction.
type dinst struct {
	op     Op
	pred   Pred  // OpICmp
	site   bool  // dynamic executions are fault-injection sites
	dst    int32 // frame slot of the result, -1 for none
	args   []dval
	callee int32 // OpCall: index into Interp.dfuncs
	t0, t1 int32 // OpBr: t0; OpCondBr: taken t0, not-taken t1
	nslots int64 // OpAlloca
}

// dblock is a decoded basic block.
type dblock struct {
	name  string
	insts []dinst
	// siteSuffix[i] is the number of fault-injection sites from instruction
	// i to the end of the block (len(insts)+1 entries; the block end counts
	// 0). The segment loop compares it against the next event site to end
	// a segment just after that site (siteEnd), and charges a segment
	// [a, b) its siteSuffix[a]-siteSuffix[b] sites at entry, so the inner
	// loop makes no per-instruction site comparison or count.
	siteSuffix []int32
}

// siteEnd returns the end of the segment entered at idx that retires the
// k-th site after idx (counting from 0, k < siteSuffix[idx]): one past
// that site instruction, the first index after idx whose suffix count has
// dropped to siteSuffix[idx]-k-1.
func (b *dblock) siteEnd(idx int32, k uint64) int32 {
	want := b.siteSuffix[idx] - int32(k) - 1
	n := len(b.siteSuffix) - int(idx) - 1
	return idx + 1 + int32(sort.Search(n, func(j int) bool { return b.siteSuffix[int(idx)+1+j] <= want }))
}

// dfunc is a decoded function: its blocks, the frame size the numbering
// pass assigned, and its index in Interp.dfuncs (what snapshots record).
type dfunc struct {
	fn      *Func
	idx     int32
	blocks  []dblock
	nregs   int
	nparams int
}

// decodeFunc numbers the function's values and decodes every instruction.
// idx is the function's Interp.dfuncs index and funcIdx maps function
// names to those indices.
func decodeFunc(f *Func, idx int32, funcIdx map[string]int32) (*dfunc, error) {
	df := &dfunc{
		fn:      f,
		idx:     idx,
		blocks:  make([]dblock, len(f.Blocks)),
		nparams: len(f.Params),
	}
	blockIdx := make(map[string]int32, len(f.Blocks))
	for i, b := range f.Blocks {
		blockIdx[b.Name] = int32(i)
	}
	// Slot numbering: parameters first (so call argument i lands in slot i),
	// then instruction results in layout order. Verify has already rejected
	// redefinitions, so every name gets exactly one slot.
	slotOf := make(map[string]int32, len(f.Params)+f.InstCount())
	assign := func(name string) {
		if _, ok := slotOf[name]; !ok {
			slotOf[name] = int32(len(slotOf))
		}
	}
	for _, p := range f.Params {
		assign(p.Name)
	}
	nargs := 0
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			if in.Name != "" {
				assign(in.Name)
			}
			nargs += len(in.Args)
		}
	}
	df.nregs = len(slotOf)

	// One contiguous operand arena for the whole function keeps decoded
	// blocks cache-friendly.
	arena := make([]dval, 0, nargs)
	resolve := func(v Value) dval {
		switch x := v.(type) {
		case Const:
			return dval{slot: -1, c: uint64(int64(x))}
		case *Param:
			if s, ok := slotOf[x.Name]; ok {
				return dval{slot: s}
			}
		case *Inst:
			if s, ok := slotOf[x.Name]; ok {
				return dval{slot: s}
			}
		}
		// Unknown value kinds and unnamed results read as zero, exactly as
		// a missing entry in the legacy name-keyed environment did.
		return dval{slot: -1}
	}

	for bi, b := range f.Blocks {
		dbl := dblock{name: b.Name, insts: make([]dinst, len(b.Insts))}
		for ii, in := range b.Insts {
			di := &dbl.insts[ii]
			di.op = in.Op
			di.pred = in.Pred
			di.nslots = in.NSlots
			di.site = isSite(in)
			di.dst = -1
			if in.Name != "" {
				di.dst = slotOf[in.Name]
			}
			lo := len(arena)
			for _, a := range in.Args {
				arena = append(arena, resolve(a))
			}
			di.args = arena[lo:len(arena):len(arena)]
			switch in.Op {
			case OpBr:
				t, ok := blockIdx[in.Targets[0]]
				if !ok {
					return nil, fmt.Errorf("ir: @%s/%s+%d: br to undefined block %q",
						f.Name, b.Name, ii, in.Targets[0])
				}
				di.t0 = t
			case OpCondBr:
				t0, ok0 := blockIdx[in.Targets[0]]
				t1, ok1 := blockIdx[in.Targets[1]]
				if !ok0 || !ok1 {
					return nil, fmt.Errorf("ir: @%s/%s+%d: br to undefined block %v",
						f.Name, b.Name, ii, in.Targets)
				}
				di.t0, di.t1 = t0, t1
			case OpCall:
				ci, ok := funcIdx[in.Callee]
				if !ok {
					return nil, fmt.Errorf("ir: @%s/%s+%d: call to undefined function @%s",
						f.Name, b.Name, ii, in.Callee)
				}
				di.callee = ci
			}
		}
		dbl.siteSuffix = make([]int32, len(dbl.insts)+1)
		s := int32(0)
		for i := len(dbl.insts) - 1; i >= 0; i-- {
			if dbl.insts[i].site {
				s++
			}
			dbl.siteSuffix[i] = s
		}
		df.blocks[bi] = dbl
	}
	return df, nil
}

// acquireRegs hands out a zeroed register frame of at least n slots,
// reusing retired frames so steady-state calls allocate nothing.
func (ip *Interp) acquireRegs(n int) []uint64 {
	if k := len(ip.regPool); k > 0 {
		regs := ip.regPool[k-1]
		ip.regPool[k-1] = nil
		ip.regPool = ip.regPool[:k-1]
		if cap(regs) >= n {
			regs = regs[:n]
			clear(regs)
			return regs
		}
	}
	return make([]uint64, n)
}

// releaseRegs returns a frame's registers to the pool.
func (ip *Interp) releaseRegs(regs []uint64) {
	ip.regPool = append(ip.regPool, regs)
}

// recycleFrames retires any call stack left over from a crashed or hung
// run, returning its register frames to the pool.
func (ip *Interp) recycleFrames() {
	for i := range ip.frames {
		ip.releaseRegs(ip.frames[i].regs)
		ip.frames[i].regs = nil
	}
	ip.frames = ip.frames[:0]
}
