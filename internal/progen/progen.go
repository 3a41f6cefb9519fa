// Package progen generates random, always-terminating IR programs for
// differential and property-based testing: the generated modules exercise
// arithmetic, guarded division, memory traffic over a scratch array,
// bounded loops, branches and helper calls, and every generated program is
// guaranteed to verify and to halt.
package progen

import (
	"fmt"
	"math/rand"

	"ferrum/internal/ir"
)

// Options bounds the generated program.
type Options struct {
	// Stmts is the approximate number of statements in main (default 20).
	Stmts int
	// ScratchSlots is the size of the in-memory scratch array the program
	// receives through its %base argument (default 8).
	ScratchSlots int
	// MaxLoopTrip bounds loop iteration counts (default 6).
	MaxLoopTrip int
	// Calls enables a generated helper function and calls to it.
	Calls bool
	// BranchDensity skews the top-level statement mix toward control flow:
	// out of every 10 top-level statements, roughly this many are branch
	// diamonds or bounded loops instead of straight-line statements.
	// The default 2 is the historical mix; values are capped at 9. Dense
	// settings generate programs made of many short basic blocks, which is
	// what stresses block-formation boundaries in the machine's dispatch
	// tiers.
	BranchDensity int
}

func (o Options) withDefaults() Options {
	if o.Stmts <= 0 {
		o.Stmts = 20
	}
	if o.ScratchSlots <= 0 {
		o.ScratchSlots = 8
	}
	if o.MaxLoopTrip <= 0 {
		o.MaxLoopTrip = 6
	}
	if o.BranchDensity <= 0 {
		o.BranchDensity = 2
	}
	if o.BranchDensity > 9 {
		o.BranchDensity = 9
	}
	return o
}

// Generate builds a random module with entry main(%base, %a, %b). The
// caller provides a scratch array of Options.ScratchSlots words at %base.
func Generate(rng *rand.Rand, opts Options) (*ir.Module, error) {
	opts = opts.withDefaults()
	g := &gen{rng: rng, opts: opts, mod: &ir.Module{Entry: "main"}}
	if opts.Calls {
		g.buildHelper()
	}
	g.buildMain()
	if err := ir.Verify(g.mod); err != nil {
		return nil, fmt.Errorf("progen: generated invalid module: %w", err)
	}
	return g.mod, nil
}

type gen struct {
	rng  *rand.Rand
	opts Options
	mod  *ir.Module

	fn      *ir.Func
	block   *ir.Block
	nameSeq int
	pool    []ir.Value // values available as operands
	baseArg *ir.Param
}

func (g *gen) name(prefix string) string {
	g.nameSeq++
	return fmt.Sprintf("%s%d", prefix, g.nameSeq)
}

func (g *gen) emit(in *ir.Inst) *ir.Inst {
	g.block.Insts = append(g.block.Insts, in)
	return in
}

func (g *gen) pick() ir.Value {
	if len(g.pool) == 0 || g.rng.Intn(4) == 0 {
		return ir.Const(g.rng.Int63n(2000) - 1000)
	}
	return g.pool[g.rng.Intn(len(g.pool))]
}

var binOps = []ir.Op{
	ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
	ir.OpShl, ir.OpLShr, ir.OpAShr,
}

// stmt emits one random statement into the current block.
func (g *gen) stmt(depth int) {
	switch k := g.rng.Intn(10); {
	case k < 4: // arithmetic
		op := binOps[g.rng.Intn(len(binOps))]
		args := []ir.Value{g.pick(), g.pick()}
		if op == ir.OpShl || op == ir.OpLShr || op == ir.OpAShr {
			// Bounded shift counts keep results comparable.
			args[1] = ir.Const(g.rng.Int63n(16))
		}
		v := g.emit(&ir.Inst{Op: op, Name: g.name("v"), Args: args})
		g.pool = append(g.pool, v)
	case k == 4: // guarded division: divisor masked positive and odd
		masked := g.emit(&ir.Inst{Op: ir.OpAnd, Name: g.name("dm"),
			Args: []ir.Value{g.pick(), ir.Const(1023)}})
		div := g.emit(&ir.Inst{Op: ir.OpOr, Name: g.name("dv"),
			Args: []ir.Value{masked, ir.Const(1)}})
		op := ir.OpSDiv
		if g.rng.Intn(2) == 0 {
			op = ir.OpSRem
		}
		v := g.emit(&ir.Inst{Op: op, Name: g.name("q"), Args: []ir.Value{g.pick(), div}})
		g.pool = append(g.pool, v)
	case k == 5: // compare
		pred := ir.Pred(g.rng.Intn(6))
		v := g.emit(&ir.Inst{Op: ir.OpICmp, Name: g.name("c"), Pred: pred,
			Args: []ir.Value{g.pick(), g.pick()}})
		g.pool = append(g.pool, v)
	case k == 6: // store to scratch
		idx := g.scratchIndex()
		p := g.emit(&ir.Inst{Op: ir.OpGEP, Name: g.name("sp"),
			Args: []ir.Value{g.baseArg, idx}})
		g.emit(&ir.Inst{Op: ir.OpStore, Args: []ir.Value{g.pick(), p}})
	case k == 7: // load from scratch
		idx := g.scratchIndex()
		p := g.emit(&ir.Inst{Op: ir.OpGEP, Name: g.name("lp"),
			Args: []ir.Value{g.baseArg, idx}})
		v := g.emit(&ir.Inst{Op: ir.OpLoad, Name: g.name("lv"), Args: []ir.Value{p}})
		g.pool = append(g.pool, v)
	case k == 8 && depth < 2: // branch diamond
		g.branch(depth)
	default:
		if g.opts.Calls && g.mod.Func("helper") != nil {
			v := g.emit(&ir.Inst{Op: ir.OpCall, Name: g.name("r"),
				Callee: "helper", Args: []ir.Value{g.pick(), g.pick()}})
			g.pool = append(g.pool, v)
		} else {
			v := g.emit(&ir.Inst{Op: ir.OpAdd, Name: g.name("v"),
				Args: []ir.Value{g.pick(), g.pick()}})
			g.pool = append(g.pool, v)
		}
	}
}

// scratchIndex emits code computing a value masked into the scratch range.
func (g *gen) scratchIndex() ir.Value {
	mask := int64(1)
	for mask*2 <= int64(g.opts.ScratchSlots) {
		mask *= 2
	}
	return g.emit(&ir.Inst{Op: ir.OpAnd, Name: g.name("ix"),
		Args: []ir.Value{g.pick(), ir.Const(mask - 1)}})
}

// branch emits an if/else diamond. Values defined inside the arms are not
// added to the pool (no phi nodes; arms communicate through memory).
func (g *gen) branch(depth int) {
	cond := g.emit(&ir.Inst{Op: ir.OpICmp, Name: g.name("bc"),
		Pred: ir.Pred(g.rng.Intn(6)), Args: []ir.Value{g.pick(), g.pick()}})
	savedPool := len(g.pool)

	thenB := &ir.Block{Name: g.name("then")}
	elseB := &ir.Block{Name: g.name("else")}
	joinB := &ir.Block{Name: g.name("join")}
	g.emit(&ir.Inst{Op: ir.OpCondBr, Args: []ir.Value{cond},
		Targets: []string{thenB.Name, elseB.Name}})

	g.fn.Blocks = append(g.fn.Blocks, thenB)
	g.block = thenB
	for i := 0; i < 1+g.rng.Intn(3); i++ {
		g.stmt(depth + 1)
	}
	g.pool = g.pool[:savedPool]
	g.emit(&ir.Inst{Op: ir.OpBr, Targets: []string{joinB.Name}})

	g.fn.Blocks = append(g.fn.Blocks, elseB)
	g.block = elseB
	for i := 0; i < 1+g.rng.Intn(3); i++ {
		g.stmt(depth + 1)
	}
	g.pool = g.pool[:savedPool]
	g.emit(&ir.Inst{Op: ir.OpBr, Targets: []string{joinB.Name}})

	g.fn.Blocks = append(g.fn.Blocks, joinB)
	g.block = joinB
	// Re-seed the pool from memory so the join block has fresh values.
	idx := g.scratchIndex()
	p := g.emit(&ir.Inst{Op: ir.OpGEP, Name: g.name("jp"), Args: []ir.Value{g.baseArg, idx}})
	v := g.emit(&ir.Inst{Op: ir.OpLoad, Name: g.name("jv"), Args: []ir.Value{p}})
	g.pool = append(g.pool, v)
}

// loop emits a bounded counting loop whose body is straight-line.
func (g *gen) loop() {
	trip := 1 + g.rng.Intn(g.opts.MaxLoopTrip)
	ctr := g.counterSlot()
	g.emit(&ir.Inst{Op: ir.OpStore, Args: []ir.Value{ir.Const(0), ctr}})

	headB := &ir.Block{Name: g.name("head")}
	bodyB := &ir.Block{Name: g.name("body")}
	exitB := &ir.Block{Name: g.name("exit")}
	g.emit(&ir.Inst{Op: ir.OpBr, Targets: []string{headB.Name}})

	g.fn.Blocks = append(g.fn.Blocks, headB)
	g.block = headB
	iv := g.emit(&ir.Inst{Op: ir.OpLoad, Name: g.name("iv"), Args: []ir.Value{ctr}})
	cond := g.emit(&ir.Inst{Op: ir.OpICmp, Name: g.name("lc"), Pred: ir.PredSLT,
		Args: []ir.Value{iv, ir.Const(int64(trip))}})
	g.emit(&ir.Inst{Op: ir.OpCondBr, Args: []ir.Value{cond},
		Targets: []string{bodyB.Name, exitB.Name}})

	g.fn.Blocks = append(g.fn.Blocks, bodyB)
	g.block = bodyB
	savedPool := len(g.pool)
	g.pool = append(g.pool, iv)
	for i := 0; i < 1+g.rng.Intn(4); i++ {
		if k := g.rng.Intn(8); k == 0 {
			g.branch(1)
		} else {
			g.stmt(1)
		}
	}
	g.pool = g.pool[:savedPool]
	next := g.emit(&ir.Inst{Op: ir.OpAdd, Name: g.name("nx"),
		Args: []ir.Value{iv, ir.Const(1)}})
	g.emit(&ir.Inst{Op: ir.OpStore, Args: []ir.Value{next, ctr}})
	g.emit(&ir.Inst{Op: ir.OpBr, Targets: []string{headB.Name}})

	g.fn.Blocks = append(g.fn.Blocks, exitB)
	g.block = exitB
}

func (g *gen) counterSlot() ir.Value {
	// Allocas must live in the entry block (clang -O0 discipline); the
	// entry block is Blocks[0] and still mutable.
	a := &ir.Inst{Op: ir.OpAlloca, Name: g.name("slot"), NSlots: 1}
	entry := g.fn.Blocks[0]
	entry.Insts = append([]*ir.Inst{a}, entry.Insts...)
	return a
}

func (g *gen) buildHelper() {
	pa := &ir.Param{Name: "x", Index: 0}
	pb := &ir.Param{Name: "y", Index: 1}
	f := &ir.Func{Name: "helper", Params: []*ir.Param{pa, pb}}
	g.mod.Funcs = append(g.mod.Funcs, f)
	g.fn = f
	g.block = &ir.Block{Name: "entry"}
	f.Blocks = []*ir.Block{g.block}
	t := g.emit(&ir.Inst{Op: ir.OpMul, Name: "t", Args: []ir.Value{pa, pb}})
	u := g.emit(&ir.Inst{Op: ir.OpXor, Name: "u", Args: []ir.Value{t, pa}})
	s := g.emit(&ir.Inst{Op: ir.OpAShr, Name: "s", Args: []ir.Value{u, ir.Const(3)}})
	r := g.emit(&ir.Inst{Op: ir.OpAdd, Name: "r", Args: []ir.Value{s, pb}})
	g.emit(&ir.Inst{Op: ir.OpRet, Args: []ir.Value{r}})
}

func (g *gen) buildMain() {
	base := &ir.Param{Name: "base", Index: 0}
	pa := &ir.Param{Name: "a", Index: 1}
	pb := &ir.Param{Name: "b", Index: 2}
	f := &ir.Func{Name: "main", Params: []*ir.Param{base, pa, pb}}
	g.mod.Funcs = append(g.mod.Funcs, f)
	g.fn = f
	g.baseArg = base
	g.block = &ir.Block{Name: "entry"}
	f.Blocks = []*ir.Block{g.block}
	g.pool = []ir.Value{pa, pb}

	// At the default density of 2 this draws loop on 0 and branch on 1 —
	// the historical mix, consuming the identical RNG sequence — and denser
	// settings widen the control-flow band without changing the draw shape.
	for i := 0; i < g.opts.Stmts; i++ {
		if k := g.rng.Intn(10); k < g.opts.BranchDensity {
			if k%2 == 0 {
				g.loop()
			} else {
				g.branch(0)
			}
		} else {
			g.stmt(0)
		}
	}

	// Outputs: a handful of live values plus a scratch checksum.
	for i := 0; i < 3 && i < len(g.pool); i++ {
		g.emit(&ir.Inst{Op: ir.OpOut, Args: []ir.Value{g.pool[g.rng.Intn(len(g.pool))]}})
	}
	acc := g.counterSlot()
	g.emit(&ir.Inst{Op: ir.OpStore, Args: []ir.Value{ir.Const(0), acc}})
	for i := 0; i < g.opts.ScratchSlots; i++ {
		p := g.emit(&ir.Inst{Op: ir.OpGEP, Name: g.name("op"),
			Args: []ir.Value{base, ir.Const(int64(i))}})
		v := g.emit(&ir.Inst{Op: ir.OpLoad, Name: g.name("ov"), Args: []ir.Value{p}})
		old := g.emit(&ir.Inst{Op: ir.OpLoad, Name: g.name("oa"), Args: []ir.Value{acc}})
		m := g.emit(&ir.Inst{Op: ir.OpMul, Name: g.name("om"),
			Args: []ir.Value{old, ir.Const(31)}})
		s := g.emit(&ir.Inst{Op: ir.OpAdd, Name: g.name("os"), Args: []ir.Value{m, v}})
		g.emit(&ir.Inst{Op: ir.OpStore, Args: []ir.Value{s, acc}})
	}
	final := g.emit(&ir.Inst{Op: ir.OpLoad, Name: g.name("fin"), Args: []ir.Value{acc}})
	g.emit(&ir.Inst{Op: ir.OpOut, Args: []ir.Value{final}})
	g.emit(&ir.Inst{Op: ir.OpRet, Args: []ir.Value{final}})
}
