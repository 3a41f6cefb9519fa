package ir

import (
	"encoding/binary"
	"fmt"
	"math"

	"ferrum/internal/pagemem"
)

// Outcome is the terminal state of one IR execution.
type Outcome uint8

// Execution outcomes.
const (
	OutcomeOK       Outcome = iota
	OutcomeDetected         // a check instruction fired
	OutcomeCrash            // memory fault or divide error
	OutcomeHang             // exceeded the step budget
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeDetected:
		return "detected"
	case OutcomeCrash:
		return "crash"
	case OutcomeHang:
		return "hang"
	}
	return fmt.Sprintf("outcome?%d", o)
}

// GuardSize mirrors the machine's unmapped low region so IR and assembly
// executions share one address space layout.
const GuardSize = pagemem.GuardSize

// DefaultMaxSteps bounds runaway executions.
const DefaultMaxSteps = 50_000_000

// MaxCallDepth bounds recursion so that fault-corrupted base cases crash
// the interpreted program (matching the machine model, where runaway
// recursion exhausts the simulated stack).
const MaxCallDepth = 10_000

// Fault is an IR-level single-bit fault plan (the LLFI-style injector the
// paper's "anticipated" coverage is measured with): flip bit Bit of the
// result of the Site-th dynamically executed value-producing instruction.
// Alloca addresses and call results are not sites; see package fi.
type Fault struct {
	Site uint64
	Bit  uint
}

// RunOpts configures one interpreted execution.
type RunOpts struct {
	Args     []uint64
	MaxSteps uint64
	Fault    *Fault
	// Checkpoints, when non-nil, records a checkpoint schedule into it for
	// later fast-forward resumes (see Checkpoints).
	Checkpoints *Checkpoints
	// Resume starts execution from a snapshot instead of the entry
	// function; Args are ignored and all counters continue from the
	// snapshot's values, so a resumed run's RunResult is bit-identical to
	// a from-scratch run that passed through the snapshot point.
	Resume *Snapshot
}

// RunResult summarises one interpreted execution.
type RunResult struct {
	Outcome  Outcome
	Output   []uint64
	Steps    uint64
	Sites    uint64
	CrashMsg string
	Injected bool
	// FaultStep is the retired-instruction count at the moment the fault
	// was applied (valid only when Injected). Steps - FaultStep is the
	// detection latency in retired IR instructions.
	FaultStep uint64
}

// frame is one activation record of the explicit call stack. The
// interpreter keeps frames on a slice instead of the Go stack so a mid-run
// Snapshot can capture — and Restore rebuild — the whole call state. regs
// is the dense register file the decode stage numbered the function's
// values into; it comes from (and returns to) the interpreter's frame pool.
type frame struct {
	df      *dfunc
	block   int32 // index into df.blocks
	idx     int32 // index of the next instruction within the block
	regs    []uint64
	savedSP uint64
}

// Interp executes IR modules against the same flat memory model the
// machine uses, so benchmark data loaders work identically at both levels.
type Interp struct {
	mod *Module

	dfuncs  []*dfunc   // decoded functions, parallel to mod.Funcs
	entry   int32      // dfuncs index of the entry function
	regPool [][]uint64 // retired register frames for reuse

	// mem is the working memory over the pristine image, shared with
	// clones; it tracks the pages a run dirties, so per-run resets,
	// checkpoints and Restore copy only what the run touched.
	mem pagemem.Mem

	frames   []frame
	sp       uint64
	output   []uint64
	steps    uint64
	maxSteps uint64
	sites    uint64
	fault    *Fault
	injected bool
	// injStep is the retired-instruction count at the moment the fault was
	// applied (valid only when injected). Steps - injStep is the fault's
	// detection latency in retired IR instructions.
	injStep uint64

	// ckpts is the run's checkpoint schedule, nil when it takes none.
	ckpts *Checkpoints
}

// NewInterp builds an interpreter for a verified module. Release it when
// done to recycle its memory; an unreleased interpreter is simply left to
// the GC.
func NewInterp(mod *Module, memSize int) (*Interp, error) {
	if err := Verify(mod); err != nil {
		return nil, err
	}
	if mod.Entry == "" || mod.Func(mod.Entry) == nil {
		return nil, fmt.Errorf("ir: entry function %q not found", mod.Entry)
	}
	if memSize < GuardSize*2 {
		return nil, fmt.Errorf("ir: memory size %d too small", memSize)
	}
	ip := &Interp{mod: mod, dfuncs: make([]*dfunc, len(mod.Funcs))}
	funcIdx := make(map[string]int32, len(mod.Funcs))
	for i, f := range mod.Funcs {
		funcIdx[f.Name] = int32(i)
	}
	for i, f := range mod.Funcs {
		df, err := decodeFunc(f, int32(i), funcIdx)
		if err != nil {
			return nil, err
		}
		ip.dfuncs[i] = df
	}
	ip.entry = funcIdx[mod.Entry]
	ip.mem = pagemem.New(memSize)
	return ip, nil
}

// Clone returns an interpreter that shares this one's immutable decoded
// program (module and decoded functions) and pristine memory
// image, but owns all mutable run state — memory, dirty tracking, frames
// and the register pool. Campaign workers clone one fully-loaded template
// instead of re-verifying, re-decoding and re-copying the data image per
// worker; clones may then Run concurrently. SetMemImage must not be called
// while the image is shared with a clone. A clone keeps the shared image
// alive: it still runs after its template's Release.
func (ip *Interp) Clone() *Interp {
	ip.live("Clone")
	return &Interp{
		mod:    ip.mod,
		dfuncs: ip.dfuncs,
		entry:  ip.entry,
		mem:    ip.mem.Clone(),
	}
}

// Release returns the interpreter's memory to the pool of zero buffers,
// and the shared image too when no clone still holds it. Run, Restore and
// Clone panic on a released interpreter; releasing it again does nothing.
func (ip *Interp) Release() { ip.mem.Release() }

// live panics when the interpreter was released: only a bug reaches op
// then.
func (ip *Interp) live(op string) {
	if ip.mem.Released() {
		panic("ir: " + op + " on a released Interp")
	}
}

// SetMemImage copies data into the pristine memory image at addr.
func (ip *Interp) SetMemImage(addr uint64, data []byte) error {
	if err := ip.mem.SetImage(addr, data); err != nil {
		return fmt.Errorf("ir: %w", err)
	}
	return nil
}

// WriteWordImage stores a 64-bit little-endian word into the pristine image.
func (ip *Interp) WriteWordImage(addr uint64, v uint64) error {
	if err := ip.mem.WriteWordImage(addr, v); err != nil {
		return fmt.Errorf("ir: %w", err)
	}
	return nil
}

type irCrash struct{ msg string }

func (e irCrash) Error() string { return e.msg }

var (
	errDetected = fmt.Errorf("ir: detected")
	errHang     = fmt.Errorf("ir: step budget exceeded")
)

// Run executes the module's entry function (or resumes from a snapshot).
func (ip *Interp) Run(opts RunOpts) RunResult {
	ip.live("Run")
	if err := ip.begin(&opts); err != nil {
		return RunResult{Outcome: OutcomeCrash, CrashMsg: err.Error()}
	}
	return ip.result(ip.run())
}

// begin prepares the interpreter for a run: fresh memory, counters and an
// entry frame holding the arguments, or the state of opts.Resume.
func (ip *Interp) begin(opts *RunOpts) error {
	if opts.Resume != nil {
		if err := ip.Restore(opts.Resume); err != nil {
			return err
		}
	} else {
		ip.mem.Reset()
		ip.sp = uint64(len(ip.mem.B))
		ip.output = ip.output[:0]
		ip.steps, ip.sites = 0, 0
		ip.injected = false
		ip.injStep = 0
		ip.recycleFrames()
		entry := ip.dfuncs[ip.entry]
		regs := ip.acquireRegs(entry.nregs)
		for i := range entry.fn.Params {
			if i < len(opts.Args) {
				regs[i] = opts.Args[i]
			}
		}
		ip.frames = append(ip.frames, frame{df: entry, regs: regs, savedSP: ip.sp})
	}
	ip.fault = opts.Fault
	ip.maxSteps = opts.MaxSteps
	if ip.maxSteps == 0 {
		ip.maxSteps = DefaultMaxSteps
	}
	ip.ckpts = opts.Checkpoints
	if c := ip.ckpts; c != nil && c.Every == 0 {
		ip.ckpts = nil
	}
	return nil
}

// result assembles the RunResult of a run that ended with err.
func (ip *Interp) result(err error) RunResult {
	res := RunResult{
		Output:    append([]uint64(nil), ip.output...),
		Steps:     ip.steps,
		Sites:     ip.sites,
		Injected:  ip.injected,
		FaultStep: ip.injStep,
	}
	switch e := err.(type) {
	case nil:
		res.Outcome = OutcomeOK
	case irCrash:
		res.Outcome = OutcomeCrash
		res.CrashMsg = e.msg
	default:
		switch err {
		case errDetected:
			res.Outcome = OutcomeDetected
		case errHang:
			res.Outcome = OutcomeHang
		default:
			res.Outcome = OutcomeCrash
			res.CrashMsg = err.Error()
		}
	}
	return res
}

// isSite reports whether the instruction's dynamic execution is an
// IR-level fault-injection site.
func isSite(in *Inst) bool {
	if in.Name == "" {
		return false
	}
	switch in.Op {
	case OpAlloca, OpCall:
		return false
	}
	return true
}

// controlFlow executes a branch, return or call instruction against the
// current top frame. It reports whether the entry function returned (done).
// The caller must re-fetch its frame pointer afterwards: OpCall may grow —
// and so reallocate — the frame slice, and OpRet pops it.
func (ip *Interp) controlFlow(in *dinst, fr *frame) (done bool, err error) {
	switch in.op {
	case OpBr:
		fr.block, fr.idx = in.t0, 0
	case OpCondBr:
		t := in.t1
		if in.args[0].get(fr.regs) != 0 {
			t = in.t0
		}
		fr.block, fr.idx = t, 0
	case OpRet:
		var r uint64
		if len(in.args) == 1 {
			r = in.args[0].get(fr.regs)
		}
		ip.sp = fr.savedSP
		ip.releaseRegs(fr.regs)
		ip.frames = ip.frames[:len(ip.frames)-1]
		if len(ip.frames) == 0 {
			return true, nil
		}
		// The caller's frame still points at its call instruction;
		// bind the return value there and step past it.
		caller := &ip.frames[len(ip.frames)-1]
		if call := &caller.df.blocks[caller.block].insts[caller.idx]; call.dst >= 0 {
			caller.regs[call.dst] = r
		}
		caller.idx++
	case OpCall:
		if len(ip.frames) >= MaxCallDepth {
			return false, irCrash{"call depth exceeded"}
		}
		callee := ip.dfuncs[in.callee]
		regs := ip.acquireRegs(callee.nregs)
		for i, a := range in.args {
			if i >= callee.nparams {
				break
			}
			regs[i] = a.get(fr.regs)
		}
		ip.frames = append(ip.frames, frame{df: callee, regs: regs, savedSP: ip.sp})
	}
	return false, nil
}

// run drives the explicit-frame interpreter until the entry function
// returns or the run terminates abnormally. Everything it touches per
// dynamic instruction is decoded: block and function targets are indices,
// operands are frame slots or inline constants.
//
// The loop dispatches a block segment at a time, and it is the only loop
// that executes instructions. A segment runs from the frame's next
// instruction to the earliest of the next control transfer, the
// instruction where the step budget runs out, and just after the
// instruction that retires the next event site (the pending fault or the
// next checkpoint), so the hot loop runs with no per-instruction
// watchdog, site comparison or checkpoint test. A segment that ends on its
// event site is followed by one event step. The steps and sites up to the
// budget or event end are charged once at segment entry, from the block's
// suffix site counts, and the instruction index lives in a local; a
// segment cut short by a control transfer or a crash takes back what it
// did not execute (uncharge) and stores the index in its frame then.
func (ip *Interp) run() error {
	ev := ip.nextEvent()
outer:
	for {
		fr := &ip.frames[len(ip.frames)-1]
		bl := &fr.df.blocks[fr.block]
		idx := fr.idx
		n := int32(len(bl.insts))
		if idx >= n {
			return irCrash{fmt.Sprintf("@%s/%s: fell off block end", fr.df.fn.Name, bl.name)}
		}
		// The budget is counted before every instruction, so a hung run
		// reports one step past it.
		end := n
		if ip.steps+uint64(n-idx) > ip.maxSteps {
			if ip.steps >= ip.maxSteps {
				ip.steps++
				return errHang
			}
			end = idx + int32(ip.maxSteps-ip.steps)
		}
		// A call ends the segment before any site after it, so the block's
		// own suffix counts locate the event site exactly.
		event := false
		if k := ev - ip.sites; k < uint64(bl.siteSuffix[idx]) {
			if e := bl.siteEnd(idx, k); e <= end {
				end, event = e, true
			}
		}
		ip.steps += uint64(end - idx)
		ip.sites += uint64(bl.siteSuffix[idx] - bl.siteSuffix[end])
		insts := bl.insts
		regs := fr.regs
		for i := idx; i < end; i++ {
			in := &insts[i]
			switch in.op {
			case OpBr, OpCondBr, OpRet, OpCall:
				ip.uncharge(bl, i, end)
				fr.idx = i
				done, err := ip.controlFlow(in, fr)
				if err != nil {
					return err
				}
				if done {
					return nil
				}
				continue outer
			}
			if err := ip.exec(in, regs); err != nil {
				ip.uncharge(bl, i, end)
				fr.idx = i
				return err
			}
		}
		fr.idx = end
		if event {
			ip.event(&insts[end-1], regs)
			ev = ip.nextEvent()
		}
	}
}

// uncharge takes back the part of a segment charged up to end that did not
// run because instruction i ended it: the steps after i, and the sites from
// i on. i itself counts as a step but retires no site — a control transfer
// is never a site, and a crashed or detecting instruction writes no result.
func (ip *Interp) uncharge(bl *dblock, i, end int32) {
	ip.steps -= uint64(end - i - 1)
	ip.sites -= uint64(bl.siteSuffix[i] - bl.siteSuffix[end])
}

// nextEvent returns the index (counting sites from 0) of the next site
// whose retirement is an event: the pending fault site or the site that
// completes the next multiple of the checkpoint spacing. A run without
// checkpoints and without a pending fault gets MaxUint64, which no run
// reaches.
func (ip *Interp) nextEvent() uint64 {
	e := uint64(math.MaxUint64)
	if f := ip.fault; f != nil && !ip.injected && f.Site >= ip.sites {
		e = f.Site
	}
	if c := ip.ckpts; c != nil {
		e = min(e, (ip.sites/c.Every+1)*c.Every-1)
	}
	return e
}

// event is the event step, run after a segment retired the site
// instruction in that nextEvent named: it flips the fault bit in in's
// result, then delivers the checkpoint.
func (ip *Interp) event(in *dinst, regs []uint64) {
	if f := ip.fault; f != nil && !ip.injected && f.Site == ip.sites-1 {
		regs[in.dst] ^= 1 << (f.Bit % 64)
		ip.injected = true
		ip.injStep = ip.steps
	}
	if c := ip.ckpts; c != nil && ip.sites%c.Every == 0 {
		ip.checkpoint(c)
	}
}

func (ip *Interp) exec(in *dinst, regs []uint64) error {
	var result uint64
	switch in.op {
	case OpAdd, OpSub, OpMul, OpSDiv, OpSRem, OpAnd, OpOr, OpXor, OpShl, OpLShr, OpAShr:
		a := in.args[0].get(regs)
		b := in.args[1].get(regs)
		r, err := evalBinary(in.op, a, b)
		if err != nil {
			return err
		}
		result = r
	case OpICmp:
		a := int64(in.args[0].get(regs))
		b := int64(in.args[1].get(regs))
		if in.pred.Eval(a, b) {
			result = 1
		}
	case OpAlloca:
		size := uint64(in.nslots) * 8
		if size > ip.sp || ip.sp-size < GuardSize {
			return irCrash{"stack overflow in alloca"}
		}
		ip.sp -= size
		result = ip.sp
	case OpLoad:
		addr := in.args[0].get(regs)
		v, err := ip.load(addr)
		if err != nil {
			return err
		}
		result = v
	case OpStore:
		v := in.args[0].get(regs)
		addr := in.args[1].get(regs)
		return ip.store(addr, v)
	case OpGEP:
		result = in.args[0].get(regs) + 8*in.args[1].get(regs)
	case OpOut:
		ip.output = append(ip.output, in.args[0].get(regs))
		return nil
	case OpCheck:
		if in.args[0].get(regs) != in.args[1].get(regs) {
			return errDetected
		}
		return nil
	default:
		return irCrash{fmt.Sprintf("unimplemented op %s", in.op)}
	}

	if in.dst >= 0 {
		regs[in.dst] = result
	}
	return nil
}

func evalBinary(op Op, a, b uint64) (uint64, error) {
	switch op {
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	case OpSDiv:
		if b == 0 {
			return 0, irCrash{"divide by zero"}
		}
		if int64(a) == -1<<63 && int64(b) == -1 {
			return 0, irCrash{"divide overflow"}
		}
		return uint64(int64(a) / int64(b)), nil
	case OpSRem:
		if b == 0 {
			return 0, irCrash{"divide by zero"}
		}
		if int64(a) == -1<<63 && int64(b) == -1 {
			return 0, irCrash{"divide overflow"}
		}
		return uint64(int64(a) % int64(b)), nil
	case OpAnd:
		return a & b, nil
	case OpOr:
		return a | b, nil
	case OpXor:
		return a ^ b, nil
	case OpShl:
		return a << (b & 63), nil
	case OpLShr:
		return a >> (b & 63), nil
	case OpAShr:
		return uint64(int64(a) >> (b & 63)), nil
	}
	return 0, irCrash{fmt.Sprintf("bad binary op %s", op)}
}

// The single-compare bounds check below is equivalent to the three-part
// `addr < GuardSize || addr+8 > len || addr+8 < addr` form: NewInterp
// guarantees len(mem) >= 2*GuardSize, so both subtractions are exact for
// valid addresses, and any out-of-range or wrapping addr makes the left
// side wrap to a huge value.

func (ip *Interp) load(addr uint64) (uint64, error) {
	if addr-GuardSize > uint64(len(ip.mem.B))-(GuardSize+8) {
		return 0, irCrash{fmt.Sprintf("load at %#x out of range", addr)}
	}
	return binary.LittleEndian.Uint64(ip.mem.B[addr:]), nil
}

func (ip *Interp) store(addr, v uint64) error {
	if addr-GuardSize > uint64(len(ip.mem.B))-(GuardSize+8) {
		return irCrash{fmt.Sprintf("store at %#x out of range", addr)}
	}
	ip.mem.MarkDirty(addr, 8)
	binary.LittleEndian.PutUint64(ip.mem.B[addr:], v)
	return nil
}
