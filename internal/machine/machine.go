// Package machine executes programs in the asm model. It is the
// reproduction's stand-in for the paper's Intel Xeon testbed: it interprets
// the x86-64 subset, accounts cycles with a calibrated dual-issue cost
// model (scalar and vector units overlap within a basic block, which is
// what makes FERRUM's SIMD checking cheap on real hardware), and exposes
// the single-bit fault-injection hook that the fi package drives.
package machine

import (
	"encoding/binary"
	"fmt"

	"ferrum/internal/asm"
	"ferrum/internal/pagemem"
)

// Outcome is the terminal state of one program execution.
type Outcome uint8

// Execution outcomes.
const (
	OutcomeOK       Outcome = iota // reached HALT
	OutcomeDetected                // reached DETECT (a checker fired)
	OutcomeCrash                   // memory fault, bad control transfer, div error
	OutcomeHang                    // exceeded the step budget
	// OutcomeBoundary reports that the run reached RunOpts.StopAtSites
	// dynamic fault-injection sites and stopped there, with the machine state
	// captured in Result.Boundary. It is a sectioning outcome, not a terminal
	// program state: compositional campaigns classify the boundary state
	// against the golden run's snapshot at the same site count.
	OutcomeBoundary
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
	case OutcomeBoundary:
		return "boundary"
	}
	return fmt.Sprintf("outcome?%d", o)
}

// GuardSize is the size of the unmapped low region; accesses below it crash,
// catching null-pointer-style corruption.
const GuardSize = pagemem.GuardSize

// Fault is a fault plan in the paper's §IV-A2 model: flip bit Bit of the
// destination of the Site-th dynamically executed instruction that has an
// architectural destination, immediately after it retires. Extra lists
// additional bits flipped in the same destination, modelling the
// multi-bit-upset scenario the paper defers to future work (§II-A).
type Fault struct {
	Site  uint64
	Bit   uint
	Extra []uint
}

// Result summarises one execution.
type Result struct {
	Outcome  Outcome
	Output   []uint64
	Cycles   float64
	DynInsts uint64
	DynSites uint64 // dynamic instructions with a fault-injection destination
	CrashMsg string
	Injected bool // whether the planned fault was reached and applied
	// FaultCycles and FaultDyn record the cycle clock and retired dynamic
	// instruction count at the moment the fault was applied (valid only when
	// Injected). Cycles - FaultCycles is the fault's detection latency on
	// the machine cycle model: how long the corrupted state ran before the
	// terminal event (detector trap, crash, hang cutoff, or normal exit).
	FaultCycles float64
	FaultDyn    uint64
	// SiteStatics holds each dynamic site's static instruction id (its index
	// into StaticInstrs) when RunOpts.RecordSiteStatics was set. It maps
	// dynamic sites back to their location, destination and width, and to
	// the static analysis that classified them.
	SiteStatics []int32
	// Profile holds the dynamic attribution when RunOpts.Profile was set.
	Profile *Profile
	// Trace holds the last RunOpts.Trace executed instructions, oldest
	// first, each rendered as "<tag>\t<instruction>".
	Trace []string
	// Boundary holds the machine state at the stop point when the run ended
	// with OutcomeBoundary (RunOpts.StopAtSites), captured at exactly the
	// state an OnCheckpoint snapshot at the same site count would see.
	Boundary *Snapshot
	// FnSpans records which functions executed over which dynamic-site
	// intervals when RunOpts.RecordFnSpans was set, in execution order.
	FnSpans []FnSpan
}

// RunOpts configures one execution.
type RunOpts struct {
	Args     []uint64 // passed to the entry function in the argument registers
	MaxSteps uint64   // dynamic instruction budget; 0 means DefaultMaxSteps
	Fault    *Fault   // optional fault plan
	// RecordSiteStatics records each dynamic site's static instruction id
	// (index into StaticInstrs) in Result.SiteStatics. StaticInstrs maps an
	// id to the site's location and destination, so this one recorder
	// serves proneness profiling, width-aware bit sampling (DestBits) and
	// the pruning pass's equivalence classes.
	RecordSiteStatics bool
	Profile           bool // attribute dynamic instructions/cycles by opcode and tag
	// Trace keeps the last N executed instructions (rendered with their
	// provenance tags) in Result.Trace — a flight recorder for debugging
	// fault outcomes. 0 disables tracing.
	Trace int
	// CheckpointEvery captures a Snapshot after every CheckpointEvery-th
	// dynamic site and passes it to OnCheckpoint, recording a checkpoint
	// schedule for later fast-forward resumes. 0 disables checkpointing.
	CheckpointEvery uint64
	OnCheckpoint    func(*Snapshot)
	// Resume starts execution from a snapshot instead of the entry
	// scaffolding. Args are ignored (register state comes from the
	// snapshot) and all counters continue from the snapshot's values, so a
	// resumed run's Result is bit-identical to a from-scratch run that
	// passed through the snapshot point — including MaxSteps/hang
	// semantics. RecordSiteStatics/RecordFnSpans/Profile/Trace observe only
	// the resumed suffix.
	Resume *Snapshot
	// StopAtSites, if > 0, ends the run with OutcomeBoundary the moment the
	// dynamic site counter reaches it, capturing the machine state in
	// Result.Boundary. The capture point is identical to OnCheckpoint's
	// (after the site instruction retires, before span flushing), so a
	// boundary snapshot is digest-comparable with a golden checkpoint taken
	// at the same site count. Runs that terminate first report their
	// terminal outcome as usual.
	StopAtSites uint64
	// RecordFnSpans records which function was executing over which
	// dynamic-site interval in Result.FnSpans. Compositional campaigns use
	// the spans to fingerprint the code a section actually executes —
	// including functions that retire no fault sites of their own.
	RecordFnSpans bool
	// Golden lets an injected run end early, exactly. Once the fault has
	// been applied, the run stops at each later golden checkpoint site
	// count and compares its live state with the golden snapshot there. If
	// the two are bit-identical, the rest of the run is the golden run's,
	// so Run returns the golden End in place of executing it: same
	// Outcome, Output, Cycles, DynInsts and DynSites, with this run's
	// injection stamps. The machine's own state is then left at the
	// convergence point. A run with an observer (site or span recording,
	// profiling, tracing, a checkpoint schedule) or StopAtSites ignores
	// Golden and executes to the end, with the same Result: converging
	// would cut its recordings short.
	Golden *Golden
}

// Golden is a fault-free reference run of the loaded program for
// RunOpts.Golden: the snapshots its OnCheckpoint schedule delivered, in
// ascending Sites() order, and the Result it ended with. It must come from
// a machine loaded with the same program, memory image and cost model.
// Only a golden run that reached HALT is used, and only when the
// converging run's step budget covers its DynInsts, so the golden
// continuation is exactly what the converging run would have executed.
type Golden struct {
	Checkpoints []*Snapshot
	End         Result
}

// FnSpan records that function Fn was the executing function while the
// dynamic site counter ran from Start to End. Spans are half-open in
// spirit ([Start, End)) but a function entered and left without retiring a
// site yields an empty Start == End span, which still marks it as having
// executed at that point in the schedule.
type FnSpan struct {
	Fn         string
	Start, End uint64
}

// DefaultMaxSteps bounds executions that lost control of their loop
// conditions after a fault.
const DefaultMaxSteps = 50_000_000

// SiteLoc is the static location of a dynamic fault-injection site: the
// enclosing function and the instruction's index within it.
type SiteLoc struct {
	Fn  string
	Idx int
}

// flatInst is the cold side of a loaded instruction: the original asm form
// plus provenance, used by profiling, tracing, fault application and the
// generic slow path. The hot interpreter loop reads only the parallel
// decoded uop array (Machine.uops; see decode.go), which is kept small so
// the working set of a run fits closer to L1.
type flatInst struct {
	in   asm.Inst
	dest asm.Dest
	cost cost
	fn   string // enclosing function name
	idx  int    // index within the function
}

// program is a decoded asm program: the flat instruction table, its
// parallel uop array, the label map, the start and entry points and the
// block-dispatch tables. It holds no memory, so one decoded program serves
// machines of every memory size. A Machine embeds it by value: making a
// machine copies the slice headers, and the execution loop reads the
// tables straight off the Machine.
type program struct {
	insts  []flatInst
	uops   []uop // decoded hot array, parallel to insts
	labels map[string]int
	entry  int
	start  int

	// Block-dispatch tables (indexed by instruction position; see
	// block.go).
	blockEnd   []int32 // exclusive end of the enclosing basic block
	siteSuffix []int32 // fault sites from this index to its block end
}

// Decoded is a validated, decoded program that machines are instantiated
// from. Decode once and instantiate per run: every machine made from one
// Decoded shares its tables read-only and owns only its architectural
// state and memory, so a Decoded pins no memory buffer.
type Decoded struct{ program }

// Machine executes one loaded program. A Machine is reusable: each Run
// resets architectural state but keeps the loaded program and memory image.
type Machine struct {
	program // shared read-only with the Decoded and every Clone

	lastSites uint64 // previous run's site count (RecordSiteStatics capacity hint)

	nBlocks uint64 // basic blocks entered (lifetime)

	// Architectural state (reset per run).
	gpr   [asm.NumReg]uint64
	x     [asm.NumXReg][8]uint64
	flags [asm.NumFlag]bool
	// mem is the working memory over the pristine image every run starts
	// from, shared with clones; it tracks the pages a run dirties, so
	// reset, Snapshot and Restore copy only those.
	mem pagemem.Mem

	output   []uint64
	pc       int
	dyn      uint64
	sites    uint64
	injected bool

	// Injection instant, captured when the planned fault is applied (cycle
	// clock and retired instructions); zero until then. Only the two
	// injection points write these — the fast block path never does, because
	// blocks containing the fault site always fall back to runBlockSlow.
	injCycles float64
	injDyn    uint64

	scalarSpan float64
	vectorSpan float64
	cycles     float64

	// boundary holds the StopAtSites capture for the current run; cleared at
	// the top of Run. Both dispatch tiers write it (runBlockSlow cannot
	// return a snapshot through the block loop's plumbing).
	boundary *Snapshot

	// conv holds the RunOpts.Golden checkpoints still ahead of the current
	// run, nearest first; nConverged counts runs that ended at a golden
	// checkpoint (lifetime).
	conv       []*Snapshot
	nConverged uint64
}

// New loads a program into a machine with the given memory size: it
// decodes the program and instantiates one machine from it. The initial
// memory image is zero; use SetMemImage or WriteWord to install benchmark
// data before Run. Release the machine when done with it to recycle its
// memory; an unreleased machine is simply left to the GC.
func New(p *asm.Program, memSize int) (*Machine, error) {
	d, err := Decode(p)
	if err != nil {
		return nil, err
	}
	return d.Instantiate(memSize)
}

// Decode validates and decodes a program under the default cost model.
func Decode(p *asm.Program) (*Decoded, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return decodeProgram(p)
}

// decodeProgram decodes a program without validating it first. It still
// rejects undefined control-flow labels; tests use this entry to exercise
// that guard directly.
func decodeProgram(p *asm.Program) (*Decoded, error) {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Insts)
	}
	d := &Decoded{program{
		insts:  make([]flatInst, 0, n),
		labels: make(map[string]int),
	}}
	for _, f := range p.Funcs {
		d.labels[f.Name] = len(d.insts)
		for i, in := range f.Insts {
			for _, l := range in.Labels {
				d.labels[l] = len(d.insts)
			}
			d.insts = append(d.insts, flatInst{
				in: in, dest: asm.DestOf(in), fn: f.Name, idx: i,
			})
		}
	}
	costs := DefaultCostModel()
	d.uops = make([]uop, len(d.insts))
	for i := range d.insts {
		d.insts[i].cost = costs.staticCost(d.insts[i].in)
		d.uops[i].cost = d.insts[i].cost
		if err := d.decode(&d.uops[i], &d.insts[i]); err != nil {
			return nil, err
		}
	}
	entry := p.Entry
	if entry == "" {
		return nil, fmt.Errorf("machine: program has no entry")
	}
	start, ok := d.labels[asm.StartLabel]
	if !ok {
		// Without scaffolding, begin directly at the entry function.
		start = d.labels[entry]
	}
	d.start = start
	d.entry = d.labels[entry]
	d.buildBlocks()
	return d, nil
}

// Instantiate returns a machine running the decoded program on a memory of
// memSize bytes with a zero image. The machine shares the decoded tables
// and owns everything else; Release recycles only its own memory.
func (d *Decoded) Instantiate(memSize int) (*Machine, error) {
	if memSize < GuardSize*2 {
		return nil, fmt.Errorf("machine: memory size %d too small", memSize)
	}
	return &Machine{program: d.program, mem: pagemem.New(memSize)}, nil
}

// Clone returns a machine that shares this machine's loaded program — the
// instruction, uop and block tables and the pristine memory image — but
// owns its architectural state, memory and counters. Clones are how
// campaigns pool the load-time decode across workers: clone once per
// worker after SetMemImage/SetCostModel, then Run concurrently. Mutating
// the program (SetCostModel, SetMemImage) on any machine after cloning is
// not safe while its clones run. A clone keeps the shared image alive: it
// still runs after its template's Release.
func (m *Machine) Clone() *Machine {
	m.live("Clone")
	return &Machine{
		program:   m.program,
		lastSites: m.lastSites,
		mem:       m.mem.Clone(),
	}
}

// Release returns the machine's memory to the pool of zero buffers, and
// the shared image too when no clone still holds it. Run, Restore,
// Snapshot and Clone panic on a released machine; releasing it again does
// nothing.
func (m *Machine) Release() { m.mem.Release() }

// live panics when the machine was released: only a bug reaches op then.
func (m *Machine) live(op string) {
	if m.mem.Released() {
		panic("machine: " + op + " on a released Machine")
	}
}

// SetCostModel replaces the cycle cost model (before Run). It rewrites the
// decoded tables in place, so it changes the cost model of the Decoded the
// machine came from, of every machine instantiated from that Decoded and of
// every Clone: call it only while none of them runs.
func (m *Machine) SetCostModel(c *CostModel) {
	for i := range m.insts {
		m.insts[i].cost = c.staticCost(m.insts[i].in)
		m.uops[i].cost = m.insts[i].cost
	}
}

// MemSize reports the size of the machine's memory.
func (m *Machine) MemSize() int { return len(m.mem.B) }

// SetMemImage copies data into the pristine memory image at addr; every Run
// starts from that image.
func (m *Machine) SetMemImage(addr uint64, data []byte) error {
	if err := m.mem.SetImage(addr, data); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	return nil
}

// WriteWordImage stores a 64-bit little-endian word into the pristine image.
func (m *Machine) WriteWordImage(addr uint64, v uint64) error {
	if err := m.mem.WriteWordImage(addr, v); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	return nil
}

// ReadWord reads a 64-bit word from the current (post-run) memory.
func (m *Machine) ReadWord(addr uint64) (uint64, error) {
	if addr < GuardSize || addr+8 > uint64(len(m.mem.B)) {
		return 0, fmt.Errorf("machine: read [%d,%d) out of range", addr, addr+8)
	}
	return binary.LittleEndian.Uint64(m.mem.B[addr:]), nil
}

type crashError struct{ msg string }

func (e crashError) Error() string { return e.msg }

func crashf(format string, args ...any) error {
	return crashError{fmt.Sprintf(format, args...)}
}

// Run executes the program from the entry scaffolding and returns the
// result. Run never returns a Go error for in-program failures; those are
// reported through the Outcome.
func (m *Machine) Run(opts RunOpts) Result {
	m.live("Run")
	maxSteps, err := m.begin(&opts)
	if err != nil {
		return Result{Outcome: OutcomeCrash, CrashMsg: err.Error()}
	}
	ob := newObservers(m, &opts)
	m.conv = m.goldenAhead(&opts, maxSteps)
	outcome, crashMsg := m.runBlocks(&opts, maxSteps, ob)
	m.conv = nil
	if outcome == outcomeConverged {
		return m.convergedResult(&opts.Golden.End)
	}
	res := m.finish(outcome, crashMsg)
	if ob != nil {
		ob.end(m, outcome == OutcomeCrash, &res)
	}
	return res
}

// begin prepares the machine for a run — a reset with the entry arguments
// installed, or a restore of opts.Resume — and returns its step budget. A
// checkpoint spacing without a callback is cleared.
func (m *Machine) begin(opts *RunOpts) (uint64, error) {
	if opts.OnCheckpoint == nil {
		opts.CheckpointEvery = 0
	}
	m.boundary = nil
	if opts.Resume != nil {
		if err := m.Restore(opts.Resume); err != nil {
			return 0, err
		}
	} else {
		m.reset()
		for i, a := range opts.Args {
			if i >= len(asm.ArgRegs) {
				break
			}
			m.gpr[asm.ArgRegs[i]] = a
		}
	}
	if opts.MaxSteps == 0 {
		return DefaultMaxSteps, nil
	}
	return opts.MaxSteps, nil
}

// finish ends a run: it flushes the in-flight cycle spans and returns the
// Result fields every run reports.
func (m *Machine) finish(outcome Outcome, crashMsg string) Result {
	m.flushSpan()
	m.lastSites = m.sites
	return Result{
		Outcome:     outcome,
		Output:      append([]uint64(nil), m.output...),
		Cycles:      m.cycles,
		DynInsts:    m.dyn,
		DynSites:    m.sites,
		CrashMsg:    crashMsg,
		Injected:    m.injected,
		FaultCycles: m.injCycles,
		FaultDyn:    m.injDyn,
		Boundary:    m.boundary,
	}
}

// StaticInstr describes one loaded instruction for static per-site
// analyses: its location and its fault-injection destination. The slice
// index in StaticInstrs is the id Result.SiteStatics records.
type StaticInstr struct {
	Fn   string
	Idx  int // index within the enclosing function
	Dest asm.Dest
}

// StaticInstrs exports the loaded program's instructions in flat (load)
// order, the coordinate system of Result.SiteStatics.
func (m *Machine) StaticInstrs() []StaticInstr {
	out := make([]StaticInstr, len(m.insts))
	for i := range m.insts {
		out[i] = StaticInstr{Fn: m.insts[i].fn, Idx: m.insts[i].idx, Dest: m.insts[i].dest}
	}
	return out
}

func (m *Machine) reset() {
	m.gpr = [asm.NumReg]uint64{}
	m.x = [asm.NumXReg][8]uint64{}
	m.flags = [asm.NumFlag]bool{}
	m.mem.Reset()
	m.output = m.output[:0]
	m.pc = m.start
	m.dyn, m.sites = 0, 0
	m.injected = false
	m.injCycles, m.injDyn = 0, 0
	m.scalarSpan, m.vectorSpan, m.cycles = 0, 0, 0
	// Stack grows down from the top of memory and starts empty — no
	// sentinel is pushed. A stray top-level RET pops from the address one
	// past the end of memory, which fails the load bounds check and yields
	// OutcomeCrash instead of wrapping into program data.
	m.gpr[asm.RSP] = uint64(len(m.mem.B))
}

// DestBits reports how many distinct bit positions a fault at a destination
// can flip: the writable width for GPR writes, 64 per touched lane for SIMD
// writes, and NumFlag for flag-only writers. Zero only for DestNone.
func DestBits(d asm.Dest) uint16 {
	switch d.Kind {
	case asm.DestGPR:
		if b := d.W.Bits(); b > 0 {
			return uint16(b)
		}
		return 64
	case asm.DestXMM:
		return uint16((d.LaneHi - d.LaneLo + 1) * 64)
	case asm.DestFlags:
		return uint16(asm.NumFlag)
	}
	return 0
}

func (m *Machine) applyFault(d asm.Dest, bit uint) {
	switch d.Kind {
	case asm.DestGPR:
		b := bit % d.W.Bits()
		m.gpr[d.Reg] ^= 1 << b
	case asm.DestXMM:
		lanes := uint(d.LaneHi-d.LaneLo+1) * 64
		b := bit % lanes
		lane := d.LaneLo + int(b/64)
		m.x[d.X][lane] ^= 1 << (b % 64)
	case asm.DestFlags:
		f := asm.Flag(bit % uint(asm.NumFlag))
		m.flags[f] = !m.flags[f]
	}
}
