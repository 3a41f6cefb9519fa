package asm

import (
	"fmt"
	"sort"
	"strings"
)

// DetectLabel is the global label every checker jumps to on a mismatch.
// The runtime scaffolding places a DETECT pseudo-instruction there; the
// machine model turns it into the Detected outcome.
const DetectLabel = "exit_function"

// StartLabel is the program entry point emitted by the backend: it calls
// the main function and halts.
const StartLabel = "_start"

// Func is one function's instruction sequence. The function's name is also
// the label of its first instruction.
type Func struct {
	Name  string
	Insts []Inst
}

// Clone deep-copies the function.
func (f *Func) Clone() *Func {
	nf := &Func{Name: f.Name, Insts: make([]Inst, len(f.Insts))}
	for i, in := range f.Insts {
		ni := in
		ni.A = append([]Operand(nil), in.A...)
		ni.Labels = append([]string(nil), in.Labels...)
		nf.Insts[i] = ni
	}
	return nf
}

// Program is a complete assembly module: a list of functions plus the name
// of the entry function the _start scaffolding calls.
type Program struct {
	Funcs []*Func
	Entry string
}

// Clone deep-copies the program.
func (p *Program) Clone() *Program {
	np := &Program{Entry: p.Entry, Funcs: make([]*Func, len(p.Funcs))}
	for i, f := range p.Funcs {
		np.Funcs[i] = f.Clone()
	}
	return np
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// StaticInstCount reports the number of static instructions across all
// functions (the metric §IV-B3 of the paper correlates transform time with).
func (p *Program) StaticInstCount() int {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Insts)
	}
	return n
}

// CountTag reports how many instructions carry the given provenance tag.
func (p *Program) CountTag(t Tag) int {
	n := 0
	for _, f := range p.Funcs {
		for _, in := range f.Insts {
			if in.Tag == t {
				n++
			}
		}
	}
	return n
}

// Validate checks structural invariants: non-empty functions, unique
// function names, unique labels, and that every jump or call target
// resolves to a function name or label.
func (p *Program) Validate() error {
	labels := map[string]bool{}
	for _, f := range p.Funcs {
		if f.Name == "" {
			return fmt.Errorf("asm: function with empty name")
		}
		if labels[f.Name] {
			return fmt.Errorf("asm: duplicate function name %q", f.Name)
		}
		labels[f.Name] = true
		if len(f.Insts) == 0 {
			return fmt.Errorf("asm: function %q has no instructions", f.Name)
		}
	}
	for _, f := range p.Funcs {
		for i, in := range f.Insts {
			for _, l := range in.Labels {
				if labels[l] {
					return fmt.Errorf("asm: %s+%d: duplicate label %q", f.Name, i, l)
				}
				labels[l] = true
			}
		}
	}
	for _, f := range p.Funcs {
		for i, in := range f.Insts {
			for _, a := range in.A {
				if a.Kind == KLabel && !labels[a.Label] {
					return fmt.Errorf("asm: %s+%d: undefined label %q in %s",
						f.Name, i, a.Label, in.String())
				}
			}
			if err := checkShape(in); err != nil {
				return fmt.Errorf("asm: %s+%d: %v", f.Name, i, err)
			}
			if int(in.Tag) >= NumTags {
				return fmt.Errorf("asm: %s+%d: provenance tag %d out of range", f.Name, i, in.Tag)
			}
		}
	}
	if p.Entry != "" && !labels[p.Entry] {
		return fmt.Errorf("asm: entry %q is not defined", p.Entry)
	}
	return nil
}

func checkShape(in Inst) error {
	argc := len(in.A)
	want := func(n int) error {
		if argc != n {
			return fmt.Errorf("%s expects %d operands, has %d", in.Op, n, argc)
		}
		return nil
	}
	switch in.Op {
	case NOP, RET, HALT, DETECT, CQTO:
		return want(0)
	case JMP, JE, JNE, JL, JLE, JG, JGE, CALL, PUSHQ, POPQ, IDIVQ, NEGQ, OUT,
		SETE, SETNE, SETL, SETLE, SETG, SETGE:
		return want(1)
	case MOVQ, MOVL, MOVB, MOVSLQ, MOVZBQ, LEA, ADDQ, SUBQ, IMULQ, ANDQ, ORQ,
		XORQ, XORB, SHLQ, SHRQ, SARQ, CMPQ, CMPL, CMPB, TESTQ, VPTEST:
		return want(2)
	case PINSRQ, VPXOR:
		return want(3)
	case VINSERTI128, VINSERTI644:
		return want(4)
	}
	return nil
}

// Block is a basic block within a function: a maximal straight-line
// instruction range [Start, End) of f.Insts.
type Block struct {
	Start, End int
	Labels     []string
}

// Blocks partitions a function into basic blocks. Leaders are the first
// instruction, any labelled instruction, and any instruction following a
// block-ending instruction (jumps, conditional jumps, ret, halt, detect).
// Calls do not end blocks.
func Blocks(f *Func) []Block {
	if len(f.Insts) == 0 {
		return nil
	}
	leader := make([]bool, len(f.Insts))
	leader[0] = true
	for i, in := range f.Insts {
		if len(in.Labels) > 0 {
			leader[i] = true
		}
		if EndsBlock(in.Op) && i+1 < len(f.Insts) {
			leader[i+1] = true
		}
	}
	var blocks []Block
	for i := 0; i < len(f.Insts); i++ {
		if !leader[i] {
			continue
		}
		end := i + 1
		for end < len(f.Insts) && !leader[end] {
			end++
		}
		blocks = append(blocks, Block{Start: i, End: end, Labels: f.Insts[i].Labels})
	}
	return blocks
}

// String renders the whole program in AT&T syntax.
func (p *Program) String() string {
	var b strings.Builder
	for i, f := range p.Funcs {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "\t.globl\t%s\n%s:\n", f.Name, f.Name)
		for _, in := range f.Insts {
			for _, l := range in.Labels {
				b.WriteString(l)
				b.WriteString(":\n")
			}
			b.WriteByte('\t')
			b.WriteString(in.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Stats summarises a program's instruction mix; useful in tests and in the
// experiment harness (Table II extension).
type Stats struct {
	Total   int
	ByTag   map[Tag]int
	ByOp    map[Op]int
	Funcs   int
	FISites int // static instructions with a fault-injection destination
}

// CollectStats computes instruction-mix statistics.
func CollectStats(p *Program) Stats {
	s := Stats{ByTag: map[Tag]int{}, ByOp: map[Op]int{}, Funcs: len(p.Funcs)}
	for _, f := range p.Funcs {
		for _, in := range f.Insts {
			s.Total++
			s.ByTag[in.Tag]++
			s.ByOp[in.Op]++
			if DestOf(in).Kind != DestNone {
				s.FISites++
			}
		}
	}
	return s
}

// String renders the statistics compactly with deterministic ordering.
func (s Stats) String() string {
	var ops []string
	for op, n := range s.ByOp {
		ops = append(ops, fmt.Sprintf("%s:%d", op, n))
	}
	sort.Strings(ops)
	return fmt.Sprintf("insts=%d funcs=%d fi-sites=%d ops={%s}",
		s.Total, s.Funcs, s.FISites, strings.Join(ops, " "))
}
