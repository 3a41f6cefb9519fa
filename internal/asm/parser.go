package asm

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse reads a program in the AT&T-style syntax Print/String emit.
//
// Functions are introduced by a ".globl name" directive followed by the
// "name:" label; other labels are local to the enclosing function. The
// optional ".entry name" directive selects the entry function (default:
// the first function).
func Parse(src string) (*Program, error) {
	p := &Program{}
	var cur *Func
	var pendingGlobl string
	var pendingLabels []string

	flushLabels := func(in *Inst) {
		in.Labels = append(in.Labels, pendingLabels...)
		pendingLabels = nil
	}

	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("asm: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}

		// Directives.
		if strings.HasPrefix(line, ".") && !strings.HasSuffix(line, ":") {
			fields := strings.Fields(line)
			switch fields[0] {
			case ".globl", ".global":
				if len(fields) != 2 {
					return nil, fail("malformed %s", fields[0])
				}
				pendingGlobl = fields[1]
			case ".entry":
				if len(fields) != 2 {
					return nil, fail("malformed .entry")
				}
				p.Entry = fields[1]
			case ".text", ".data", ".align", ".type", ".size", ".section":
				// Accepted and ignored for compatibility.
			default:
				return nil, fail("unknown directive %q", fields[0])
			}
			continue
		}

		// Labels (possibly several per line position).
		if strings.HasSuffix(line, ":") {
			name := strings.TrimSuffix(line, ":")
			// A label is one field: whitespace of any kind would split it
			// when the printed program is read back.
			if name == "" || strings.ContainsRune(name, ':') || strings.IndexFunc(name, unicode.IsSpace) >= 0 {
				return nil, fail("malformed label %q", line)
			}
			if name == pendingGlobl || cur == nil {
				cur = &Func{Name: name}
				p.Funcs = append(p.Funcs, cur)
				pendingGlobl = ""
				if len(pendingLabels) > 0 {
					return nil, fail("labels %v dangle before function %q", pendingLabels, name)
				}
			} else {
				pendingLabels = append(pendingLabels, name)
			}
			continue
		}

		// Instructions.
		if cur == nil {
			return nil, fail("instruction outside any function: %q", line)
		}
		in, err := parseInst(line)
		if err != nil {
			return nil, fail("%v", err)
		}
		flushLabels(&in)
		cur.Insts = append(cur.Insts, in)
	}
	if len(pendingLabels) > 0 {
		return nil, fmt.Errorf("asm: trailing labels %v with no instruction", pendingLabels)
	}
	if p.Entry == "" && len(p.Funcs) > 0 {
		p.Entry = p.Funcs[0].Name
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseInst(line string) (Inst, error) {
	mnemonic := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnemonic, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	op, ok := LookupOp(mnemonic)
	if !ok {
		return Inst{}, fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	in := Inst{Op: op}
	if rest != "" {
		for _, part := range splitOperands(rest) {
			o, err := parseOperand(strings.TrimSpace(part))
			if err != nil {
				return Inst{}, fmt.Errorf("%s: %v", mnemonic, err)
			}
			in.A = append(in.A, o)
		}
	}
	if err := checkShape(in); err != nil {
		return Inst{}, err
	}
	return in, nil
}

// splitOperands splits on commas that are not inside parentheses, so
// "(%rax,%rcx,8), %rdx" yields two operands.
func splitOperands(s string) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, s[start:])
	return parts
}

func parseOperand(s string) (Operand, error) {
	if s == "" {
		return Operand{}, fmt.Errorf("empty operand")
	}
	switch {
	case s[0] == '$':
		v, err := strconv.ParseInt(s[1:], 0, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("bad immediate %q: %v", s, err)
		}
		return Imm(v), nil
	case s[0] == '%':
		name := s[1:]
		if r, w, ok := LookupReg(name); ok {
			return RegOp(r, w), nil
		}
		if x, xw, ok := LookupXReg(name); ok {
			return XOp(x, xw), nil
		}
		return Operand{}, fmt.Errorf("unknown register %q", s)
	case strings.ContainsRune(s, '('):
		return parseMem(s)
	default:
		// Bare integer means absolute memory; otherwise a label.
		if v, err := strconv.ParseInt(s, 0, 64); err == nil {
			return MemOp(Mem{Disp: v}), nil
		}
		return LabelOp(s), nil
	}
}

func parseMem(s string) (Operand, error) {
	open := strings.IndexByte(s, '(')
	closeIdx := strings.LastIndexByte(s, ')')
	if closeIdx != len(s)-1 {
		return Operand{}, fmt.Errorf("bad memory operand %q", s)
	}
	var m Mem
	if dispStr := s[:open]; dispStr != "" {
		v, err := strconv.ParseInt(dispStr, 0, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("bad displacement in %q: %v", s, err)
		}
		m.Disp = v
	}
	inner := s[open+1 : closeIdx]
	parts := strings.Split(inner, ",")
	if len(parts) > 3 {
		return Operand{}, fmt.Errorf("bad memory operand %q", s)
	}
	parseReg := func(t string) (Reg, error) {
		t = strings.TrimSpace(t)
		if t == "" {
			return RNone, nil
		}
		if !strings.HasPrefix(t, "%") {
			return RNone, fmt.Errorf("bad register %q in %q", t, s)
		}
		r, w, ok := LookupReg(t[1:])
		if !ok || w != W64 {
			return RNone, fmt.Errorf("bad 64-bit register %q in %q", t, s)
		}
		return r, nil
	}
	var err error
	if m.Base, err = parseReg(parts[0]); err != nil {
		return Operand{}, err
	}
	if len(parts) >= 2 {
		if m.Index, err = parseReg(parts[1]); err != nil {
			return Operand{}, err
		}
	}
	if len(parts) == 3 {
		sc, err := strconv.Atoi(strings.TrimSpace(parts[2]))
		if err != nil || (sc != 1 && sc != 2 && sc != 4 && sc != 8) {
			return Operand{}, fmt.Errorf("bad scale in %q", s)
		}
		m.Scale = uint8(sc)
	}
	return MemOp(m), nil
}
