package harness

import (
	"fmt"
	"time"

	"ferrum/internal/fi"
	"ferrum/internal/ir"
	"ferrum/internal/machine"
	"ferrum/internal/obs"
	"ferrum/internal/rodinia"
)

// Fig10Row is one benchmark's SDC-coverage measurement (fig. 10 of the
// paper): coverage per technique, derived from assembly-level injection
// campaigns against the raw and protected binaries.
type Fig10Row struct {
	Benchmark  string
	RawSDCRate float64
	RawCI      [2]float64
	Coverage   map[Technique]float64
	SDCRate    map[Technique]float64
	Counts     map[Technique]fi.Result
}

// Fig10 reproduces the SDC-coverage experiment. Each (benchmark × technique)
// campaign is an independent scheduler cell; builds are memoised through
// Options.Cache.
func Fig10(opts Options) ([]Fig10Row, error) {
	opts = opts.withDefaults()
	insts, err := opts.instances()
	if err != nil {
		return nil, err
	}
	s := newScheduler("fig10", opts)
	techs := append([]Technique{Raw}, Techniques...)
	results := make([]fi.Result, len(insts)*len(techs))
	var cells []cellSpec
	for bi, inst := range insts {
		for ti, tech := range techs {
			idx := bi*len(techs) + ti
			cells = append(cells, cellSpec{
				name: inst.Bench.Name + "/" + string(tech),
				inj:  opts.Samples,
				run: func(cc *cellCtx) error {
					res, err := s.asmCampaignCell(cc, instanceAt{inst, opts.Seed}, tech)
					if err != nil {
						return fmt.Errorf("%s/%s: %w", inst.Bench.Name, tech, err)
					}
					results[idx] = res
					return nil
				},
			})
		}
	}
	if err := s.run(cells); err != nil {
		return nil, err
	}
	var rows []Fig10Row
	for bi, inst := range insts {
		rawRes := results[bi*len(techs)]
		row := Fig10Row{
			Benchmark: inst.Bench.Name,
			Coverage:  map[Technique]float64{},
			SDCRate:   map[Technique]float64{},
			Counts:    map[Technique]fi.Result{},
		}
		row.RawSDCRate = rawRes.SDCRate()
		lo, hi := rawRes.CI95()
		row.RawCI = [2]float64{lo, hi}
		row.Counts[Raw] = rawRes
		for ti, tech := range Techniques {
			res := results[bi*len(techs)+ti+1]
			row.Coverage[tech] = fi.Coverage(rawRes, res)
			row.SDCRate[tech] = res.SDCRate()
			row.Counts[tech] = res
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func asmTarget(inst *rodinia.Instance, build *Build, memSize int) fi.AsmTarget {
	return fi.AsmTarget{
		Prog:    build.Prog,
		MemSize: memSize,
		Args:    inst.Args,
		Setup:   func(w fi.MemWriter) error { return inst.Setup(w) },
	}
}

// Fig11Row is one benchmark's runtime performance overhead (fig. 11):
// (cycles_prot - cycles_raw) / cycles_raw on the machine cycle model.
type Fig11Row struct {
	Benchmark string
	RawCycles float64
	Overhead  map[Technique]float64
	Cycles    map[Technique]float64
	DynInsts  map[Technique]uint64
}

// Fig11 reproduces the runtime-overhead experiment. Golden runs are
// memoised through Options.Cache, so a suite that already measured a
// build's golden run never repeats it.
func Fig11(opts Options) ([]Fig11Row, error) {
	opts = opts.withDefaults()
	insts, err := opts.instances()
	if err != nil {
		return nil, err
	}
	s := newScheduler("fig11", opts)
	techs := append([]Technique{Raw}, Techniques...)
	goldens := make([]golden, len(insts)*len(techs))
	var cells []cellSpec
	for bi, inst := range insts {
		for ti, tech := range techs {
			idx := bi*len(techs) + ti
			cells = append(cells, cellSpec{
				name: inst.Bench.Name + "/" + string(tech),
				run: func(cc *cellCtx) error {
					g, err := s.golden(cc.cx, instanceAt{inst, opts.Seed}, tech)
					if err != nil {
						return fmt.Errorf("%s/%s: %w", inst.Bench.Name, tech, err)
					}
					goldens[idx] = g
					return nil
				},
			})
		}
	}
	if err := s.run(cells); err != nil {
		return nil, err
	}
	var rows []Fig11Row
	for bi, inst := range insts {
		raw := goldens[bi*len(techs)]
		row := Fig11Row{
			Benchmark: inst.Bench.Name,
			Overhead:  map[Technique]float64{},
			Cycles:    map[Technique]float64{},
			DynInsts:  map[Technique]uint64{},
		}
		row.RawCycles = raw.cycles
		row.Cycles[Raw] = raw.cycles
		row.DynInsts[Raw] = raw.dyn
		for ti, tech := range Techniques {
			g := goldens[bi*len(techs)+ti+1]
			row.Overhead[tech] = fi.Overhead(raw.cycles, g.cycles)
			row.Cycles[tech] = g.cycles
			row.DynInsts[tech] = g.dyn
		}
		rows = append(rows, row)
	}
	return rows, nil
}

type golden struct {
	cycles float64
	dyn    uint64
	output []uint64
}

// ExecTimeRow is one benchmark's FERRUM transform-time measurement
// (§IV-B3 of the paper), correlated with the static instruction count.
type ExecTimeRow struct {
	Benchmark   string
	StaticInsts int
	Duration    time.Duration
	SIMDEnabled int
	General     int
	Comparisons int
	Batches     int
}

// ExecTime reproduces the §IV-B3 measurement: the FERRUM transform is run
// repeatedly and the fastest time is reported (wall-clock, per the paper).
// The timing reps deliberately bypass the build cache (a memoised transform
// has no duration) and the cells run serially so concurrent cells don't
// inflate the wall-clock being measured.
func ExecTime(opts Options) ([]ExecTimeRow, error) {
	opts = opts.withDefaults()
	insts, err := opts.instances()
	if err != nil {
		return nil, err
	}
	s := newScheduler("exectime", opts)
	s.cellWorkers = 1
	const reps = 5
	rows := make([]ExecTimeRow, len(insts))
	var cells []cellSpec
	for bi, inst := range insts {
		cells = append(cells, cellSpec{
			name: inst.Bench.Name + "/transform",
			run: func(cc *cellCtx) error {
				sp := cc.cx.Span("transform.reps")
				defer sp.End()
				var best *ExecTimeRow
				for r := 0; r < reps; r++ {
					build, err := BuildTechniqueOpts(inst.Mod, Ferrum, BuildOptions{Optimize: opts.Optimize})
					if err != nil {
						return err
					}
					rep := build.FerrumStats
					row := ExecTimeRow{
						Benchmark:   inst.Bench.Name,
						StaticInsts: rep.StaticInsts,
						Duration:    rep.Duration,
						SIMDEnabled: rep.SIMDEnabled,
						General:     rep.General,
						Comparisons: rep.Comparisons,
						Batches:     rep.Batches,
					}
					if best == nil || row.Duration < best.Duration {
						best = &row
					}
				}
				rows[bi] = *best
				return nil
			},
		})
	}
	if err := s.run(cells); err != nil {
		return nil, err
	}
	return rows, nil
}

// GapRow is one benchmark's anticipated-vs-measured coverage for
// IR-LEVEL-EDDI (the paper's first headline finding: a 28% average gap).
// Anticipated coverage comes from IR-level injection into the protected
// IR; measured coverage from assembly-level injection into the compiled
// binary.
type GapRow struct {
	Benchmark   string
	Anticipated float64
	Measured    float64
	Gap         float64
}

// Gap reproduces the cross-layer coverage-gap experiment. The four
// campaigns per benchmark (IR raw/protected, assembly raw/protected) are
// independent scheduler cells; both protected campaigns share one memoised
// IR-EDDI build.
func Gap(opts Options) ([]GapRow, error) {
	opts = opts.withDefaults()
	insts, err := opts.instances()
	if err != nil {
		return nil, err
	}
	s := newScheduler("gap", opts)
	kinds := []string{"ir-raw", "ir-prot", "asm-raw", "asm-prot"}
	results := make([]fi.Result, len(insts)*len(kinds))
	var cells []cellSpec
	for bi, inst := range insts {
		for ki, kind := range kinds {
			idx := bi*len(kinds) + ki
			cells = append(cells, cellSpec{
				name: inst.Bench.Name + "/" + kind,
				inj:  opts.Samples,
				run: func(cc *cellCtx) error {
					var res fi.Result
					var err error
					at := instanceAt{inst, opts.Seed}
					switch kind {
					case "ir-raw":
						res, err = s.irCampaignCell(cc, at, Raw)
					case "ir-prot":
						res, err = s.irCampaignCell(cc, at, IREDDI)
					case "asm-raw":
						res, err = s.asmCampaignCell(cc, at, Raw)
					case "asm-prot":
						res, err = s.asmCampaignCell(cc, at, IREDDI)
					}
					if err != nil {
						return fmt.Errorf("%s/%s: %w", inst.Bench.Name, kind, err)
					}
					results[idx] = res
					return nil
				},
			})
		}
	}
	if err := s.run(cells); err != nil {
		return nil, err
	}
	var rows []GapRow
	for bi, inst := range insts {
		base := bi * len(kinds)
		anticipated := fi.Coverage(results[base], results[base+1])
		measured := fi.Coverage(results[base+2], results[base+3])
		rows = append(rows, GapRow{
			Benchmark:   inst.Bench.Name,
			Anticipated: anticipated,
			Measured:    measured,
			Gap:         anticipated - measured,
		})
	}
	return rows, nil
}

func irTarget(inst *rodinia.Instance, mod *ir.Module, memSize int) fi.IRTarget {
	return fi.IRTarget{
		Mod:     mod,
		MemSize: memSize,
		Args:    inst.Args,
		Setup:   func(w fi.MemWriter) error { return inst.Setup(w) },
	}
}

// runGolden is the fault-free run of a decoded build on a machine of
// memSize bytes instantiated from it, holding the instance's data: the
// golden cache's run, or a profile cell's when profile asks for dynamic
// attribution, timed by a profile.run span on cx. The machine is released
// on every path; the decoded program is left as it was.
func runGolden(cx *obs.Ctx, inst *rodinia.Instance, dec *machine.Decoded, memSize int, profile bool) (machine.Result, error) {
	m, err := dec.Instantiate(memSize)
	if err != nil {
		return machine.Result{}, err
	}
	defer m.Release()
	if err := inst.Setup(m); err != nil {
		return machine.Result{}, err
	}
	var sp *obs.ActiveSpan
	if profile {
		sp = cx.Span("profile.run")
	}
	res := m.Run(machine.RunOpts{Args: inst.Args, Profile: profile})
	sp.End()
	if res.Outcome != machine.OutcomeOK {
		return machine.Result{}, fmt.Errorf("golden run failed: %v (%s)", res.Outcome, res.CrashMsg)
	}
	return res, nil
}
