// Package core ties the FERRUM toolchain together: compile IR to the
// modelled x86-64 subset, apply a protection technique, execute on the
// machine model, and run fault-injection campaigns. It is the layer the
// public ferrum package, the command-line tools and the examples build on.
package core

import (
	"fmt"

	"ferrum/internal/asm"
	"ferrum/internal/backend"
	"ferrum/internal/eddi"
	"ferrum/internal/ferrumpass"
	"ferrum/internal/fi"
	"ferrum/internal/ir"
	"ferrum/internal/irpass"
	"ferrum/internal/machine"
	"ferrum/internal/opt"
)

// MemSize is the memory of every machine and interpreter a Pipeline
// creates, and of its campaigns.
const MemSize = 1 << 20

// Pipeline is a configured FERRUM toolchain. The zero value is usable.
type Pipeline struct {
	// Ferrum configures the FERRUM pass (batch size, SIMD, spares).
	Ferrum ferrumpass.Config
}

// New returns a pipeline with default settings.
func New() *Pipeline {
	return &Pipeline{}
}

// ParseIR parses and verifies IR source text.
func (p *Pipeline) ParseIR(src string) (*ir.Module, error) {
	return ir.Parse(src)
}

// ParseASM parses assembly source text.
func (p *Pipeline) ParseASM(src string) (*asm.Program, error) {
	return asm.Parse(src)
}

// CompileIR parses IR source and compiles it to assembly.
func (p *Pipeline) CompileIR(src string) (*asm.Program, error) {
	mod, err := ir.Parse(src)
	if err != nil {
		return nil, err
	}
	return backend.Compile(mod)
}

// Compile lowers a verified module to assembly.
func (p *Pipeline) Compile(mod *ir.Module) (*asm.Program, error) {
	return backend.Compile(mod)
}

// Optimize applies the -O1-style peephole optimizer (store-to-load
// forwarding, redundant reload elimination, jump threading) to a compiled
// program. Protection passes compose with optimized code.
func (p *Pipeline) Optimize(prog *asm.Program) (*asm.Program, *opt.Report, error) {
	return opt.Optimize(prog)
}

// Protect applies the FERRUM transform to an assembly program.
func (p *Pipeline) Protect(prog *asm.Program) (*asm.Program, *ferrumpass.Report, error) {
	return ferrumpass.Protect(prog, p.Ferrum)
}

// ProtectHybrid applies the HYBRID-ASSEMBLY-LEVEL-EDDI baseline's assembly
// half to a compiled program. For the full hybrid pipeline (including the
// IR-level signature protection of branches and comparisons), use
// ProtectModuleHybrid.
func (p *Pipeline) ProtectHybrid(prog *asm.Program) (*asm.Program, *eddi.Report, error) {
	return eddi.Protect(prog)
}

// ProtectModuleIREDDI applies the IR-LEVEL-EDDI baseline and compiles.
func (p *Pipeline) ProtectModuleIREDDI(mod *ir.Module) (*asm.Program, error) {
	prot, err := irpass.EDDI(mod)
	if err != nil {
		return nil, err
	}
	return backend.Compile(prot)
}

// ProtectModuleHybrid applies the full hybrid baseline: IR signature
// protection, compilation, and assembly-level duplication.
func (p *Pipeline) ProtectModuleHybrid(mod *ir.Module) (*asm.Program, error) {
	sig, err := irpass.Signature(mod)
	if err != nil {
		return nil, err
	}
	prog, err := backend.Compile(sig)
	if err != nil {
		return nil, err
	}
	prot, _, err := eddi.Protect(prog)
	return prot, err
}

// ProtectModuleFerrum compiles a module and applies FERRUM.
func (p *Pipeline) ProtectModuleFerrum(mod *ir.Module) (*asm.Program, *ferrumpass.Report, error) {
	prog, err := backend.Compile(mod)
	if err != nil {
		return nil, nil, err
	}
	return ferrumpass.Protect(prog, p.Ferrum)
}

// NewMachine loads a program into a fresh machine.
func (p *Pipeline) NewMachine(prog *asm.Program) (*machine.Machine, error) {
	return machine.New(prog, MemSize)
}

// Run executes a program with the given arguments after installing data
// words into memory (address -> value).
func (p *Pipeline) Run(prog *asm.Program, args []uint64, data map[uint64]uint64) (machine.Result, error) {
	m, err := machine.New(prog, MemSize)
	if err != nil {
		return machine.Result{}, err
	}
	defer m.Release()
	for addr, v := range data {
		if err := m.WriteWordImage(addr, v); err != nil {
			return machine.Result{}, err
		}
	}
	return m.Run(machine.RunOpts{Args: args}), nil
}

// Campaign runs an assembly-level fault-injection campaign against a
// program.
func (p *Pipeline) Campaign(prog *asm.Program, args []uint64, data map[uint64]uint64, c fi.Campaign) (fi.Result, error) {
	tgt := fi.AsmTarget{
		Prog:    prog,
		MemSize: MemSize,
		Args:    args,
		Setup: func(w fi.MemWriter) error {
			for addr, v := range data {
				if err := w.WriteWordImage(addr, v); err != nil {
					return err
				}
			}
			return nil
		},
	}
	return fi.RunAsmCampaign(tgt, c)
}

// Verify cross-checks a compiled program against the IR interpreter on the
// given inputs, returning an error if outputs or outcomes diverge. It is
// the differential-testing primitive used throughout this repository.
func (p *Pipeline) Verify(mod *ir.Module, prog *asm.Program, args []uint64, data map[uint64]uint64) error {
	ip, err := ir.NewInterp(mod, MemSize)
	if err != nil {
		return err
	}
	defer ip.Release()
	for addr, v := range data {
		if err := ip.WriteWordImage(addr, v); err != nil {
			return err
		}
	}
	ires := ip.Run(ir.RunOpts{Args: args})
	mres, err := p.Run(prog, args, data)
	if err != nil {
		return err
	}
	if ires.Outcome != ir.OutcomeOK {
		return fmt.Errorf("core: IR run failed: %v (%s)", ires.Outcome, ires.CrashMsg)
	}
	if mres.Outcome != machine.OutcomeOK {
		return fmt.Errorf("core: machine run failed: %v (%s)", mres.Outcome, mres.CrashMsg)
	}
	if len(ires.Output) != len(mres.Output) {
		return fmt.Errorf("core: output lengths diverge: ir %d vs asm %d", len(ires.Output), len(mres.Output))
	}
	for i := range ires.Output {
		if ires.Output[i] != mres.Output[i] {
			return fmt.Errorf("core: output[%d] diverges: ir %d vs asm %d", i, ires.Output[i], mres.Output[i])
		}
	}
	return nil
}
