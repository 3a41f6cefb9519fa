package compose

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"

	"ferrum/internal/asm"
	"ferrum/internal/backend"
	"ferrum/internal/eddi"
	"ferrum/internal/ferrumpass"
	"ferrum/internal/liveness"
	"ferrum/internal/progen"
	"ferrum/internal/rodinia"
)

// codeDigestOracle is the per-call code digest Keyer.CodeDigest memoises:
// it renders every listed function afresh.
func codeDigestOracle(prog *asm.Program, fns []string) uint64 {
	h := fnv.New64a()
	for _, name := range fns {
		f := prog.Func(name)
		if f == nil {
			continue
		}
		h.Write([]byte(f.Name))
		h.Write([]byte{0})
		for _, in := range f.Insts {
			for _, l := range in.Labels {
				h.Write([]byte(l))
				h.Write([]byte{':'})
			}
			h.Write([]byte(in.String()))
			h.Write([]byte{'\n'})
		}
	}
	return h.Sum64()
}

// deadSetsOracle is the per-call dead-state analysis Keyer.DeadSets
// memoises: it re-runs both liveness analyses and every UsedGPRs.
func deadSetsOracle(prog *asm.Program, fn string, idx int) (liveness.RegSet, liveness.FlagSet) {
	f := prog.Func(fn)
	if f == nil {
		return 0, 0
	}
	var deadR liveness.RegSet
	hasCall := false
	for _, in := range f.Insts {
		if in.Op == asm.CALL {
			hasCall = true
			break
		}
	}
	if !hasCall {
		if live, ok := liveness.AnalyzeCalls(f, liveness.CallPreserves).LiveAt(idx); ok {
			var others liveness.RegSet
			for _, g := range prog.Funcs {
				if g.Name != fn {
					others.Union(liveness.UsedGPRs(g))
				}
			}
			for r := asm.RNone + 1; r < asm.NumReg; r++ {
				if !live.Has(r) && !others.Has(r) {
					deadR.Add(r)
				}
			}
		}
	}
	var deadF liveness.FlagSet
	if live, ok := liveness.AnalyzeFlags(f).LiveAt(idx); ok {
		for fb := asm.Flag(0); fb < asm.NumFlag; fb++ {
			if !live.Has(fb) {
				deadF.Add(fb)
			}
		}
	}
	return deadR, deadF
}

// keyerPrograms returns random progen programs and every Rodinia build
// under each asm technique.
func keyerPrograms(t *testing.T) map[string]*asm.Program {
	t.Helper()
	progs := map[string]*asm.Program{}
	rng := rand.New(rand.NewSource(24))
	for i := range 12 {
		mod, err := progen.Generate(rng, progen.Options{Stmts: 20, Calls: i%2 == 0, BranchDensity: 1 + i%5})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := backend.Compile(mod)
		if err != nil {
			t.Fatal(err)
		}
		progs[fmt.Sprintf("progen%d", i)] = prog
	}
	for _, b := range rodinia.All() {
		inst, err := b.Instantiate(1, 99)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := backend.Compile(inst.Mod)
		if err != nil {
			t.Fatal(err)
		}
		fer, _, err := ferrumpass.Protect(raw, ferrumpass.Config{})
		if err != nil {
			t.Fatal(err)
		}
		hyb, _, err := eddi.Protect(raw)
		if err != nil {
			t.Fatal(err)
		}
		progs[b.Name+"/raw"], progs[b.Name+"/ferrum"], progs[b.Name+"/hybrid"] = raw, fer, hyb
	}
	return progs
}

// TestKeyerMatchesOracle: the memoised key parts equal the per-call
// oracles for random function lists (repeats, unknown names and the empty
// list included, each asked twice so memo hits are checked too) and at
// every static location of every function, out-of-range indices and an
// unknown function included. A third pass asks a fresh Keyer over the
// first one's Memo, as the next campaign on a cached build does: it must
// answer everything from the Memo, rendering and analysing nothing.
func TestKeyerMatchesOracle(t *testing.T) {
	for name, prog := range keyerPrograms(t) {
		rng := rand.New(rand.NewSource(int64(len(name))))
		memo := NewMemo()
		first, second := NewKeyer(prog, memo), NewKeyer(prog, memo)
		keyer := func(pass int) *Keyer {
			if pass < 2 {
				return first
			}
			return second
		}
		pool := []string{"", "nosuch"}
		all := make([]string, len(prog.Funcs))
		for i, f := range prog.Funcs {
			pool = append(pool, f.Name)
			all[i] = f.Name
		}
		lists := [][]string{nil, all}
		for range 40 {
			l := make([]string, rng.Intn(7))
			for j := range l {
				l[j] = pool[rng.Intn(len(pool))]
			}
			lists = append(lists, l)
		}
		for pass := range 3 {
			k := keyer(pass)
			for _, l := range lists {
				if got, want := k.CodeDigest(l), codeDigestOracle(prog, l); got != want {
					t.Fatalf("%s pass %d: CodeDigest(%q) = %016x, oracle %016x", name, pass, l, got, want)
				}
			}
		}

		type loc struct {
			fn  string
			idx int
		}
		locs := []loc{{"nosuch", 0}}
		for _, f := range prog.Funcs {
			for idx := -1; idx <= len(f.Insts); idx++ {
				locs = append(locs, loc{f.Name, idx})
			}
		}
		rng.Shuffle(len(locs), func(i, j int) { locs[i], locs[j] = locs[j], locs[i] })
		type dead struct {
			regs  liveness.RegSet
			flags liveness.FlagSet
		}
		want := make([]dead, len(locs))
		for i, l := range locs {
			want[i].regs, want[i].flags = deadSetsOracle(prog, l.fn, l.idx)
		}
		for pass := range 3 {
			k := keyer(pass)
			for i, l := range locs {
				gr, gf := k.DeadSets(l.fn, l.idx)
				wr, wf := want[i].regs, want[i].flags
				if gr != wr || gf != wf {
					t.Fatalf("%s pass %d: DeadSets(%s, %d) = (%v, %v), oracle (%v, %v)",
						name, pass, l.fn, l.idx, gr, gf, wr, wf)
				}
			}
		}
		for i, p := range second.fns {
			if p.text != nil || p.flags != nil {
				t.Errorf("%s: a Keyer over a filled Memo rendered or analysed function %d", name, i)
			}
		}
	}
}

// TestMemoConcurrentKeyers: Keyers on several goroutines share one Memo,
// as concurrent campaigns on one cached build do, and each still answers
// every key part as the oracles do (run it under -race).
func TestMemoConcurrentKeyers(t *testing.T) {
	progs := keyerPrograms(t)
	prog := progs["bfs/ferrum"]
	memo := NewMemo()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := NewKeyer(prog, memo)
			for i := range prog.Funcs {
				// Each goroutine walks the functions from its own offset, so
				// first computations and memo hits interleave.
				f := prog.Funcs[(i+g)%len(prog.Funcs)]
				if got, want := k.CodeDigest([]string{f.Name}), codeDigestOracle(prog, []string{f.Name}); got != want {
					t.Errorf("goroutine %d: CodeDigest(%s) = %016x, oracle %016x", g, f.Name, got, want)
				}
				for idx := range f.Insts {
					gr, gf := k.DeadSets(f.Name, idx)
					if wr, wf := deadSetsOracle(prog, f.Name, idx); gr != wr || gf != wf {
						t.Errorf("goroutine %d: DeadSets(%s, %d) = (%v, %v), oracle (%v, %v)", g, f.Name, idx, gr, gf, wr, wf)
					}
				}
			}
		}()
	}
	wg.Wait()
}
