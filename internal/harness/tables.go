package harness

// InstClass is an assembly instruction class from Table I of the paper.
type InstClass string

// Table I instruction classes.
const (
	ClassBasic      InstClass = "basic"
	ClassStore      InstClass = "store"
	ClassBranch     InstClass = "branch"
	ClassCall       InstClass = "call"
	ClassMapping    InstClass = "mapping"
	ClassComparison InstClass = "comparison"
)

// InstClasses lists Table I's columns in order.
var InstClasses = []InstClass{
	ClassBasic, ClassStore, ClassBranch, ClassCall, ClassMapping, ClassComparison,
}

// Table I cell values: the level at which a technique protects a class.
// "IR" = IR-level protection, "AS1" = assembly level without SIMD, "AS2" =
// assembly level with SIMD, "/" = not covered at assembly level.
const (
	LevelIR   = "IR"
	LevelAS1  = "AS1"
	LevelAS2  = "AS2"
	LevelNone = "/"
)

// Table1 returns the technique capability matrix exactly as the paper's
// Table I reports it, reflecting what each implementation in this
// repository covers:
//
//   - IR-LEVEL-EDDI duplicates IR computations ("basic" at IR) but cannot
//     see the instructions the backend introduces for stores, branches,
//     calls, value mapping, or comparisons.
//   - HYBRID-ASSEMBLY-LEVEL-EDDI duplicates at assembly level without SIMD
//     and delegates branch and comparison protection to IR-level
//     signatures.
//   - FERRUM covers every class at assembly level with SIMD batching.
func Table1() map[Technique]map[InstClass]string {
	return map[Technique]map[InstClass]string{
		IREDDI: {
			ClassBasic: LevelIR, ClassStore: LevelNone, ClassBranch: LevelNone,
			ClassCall: LevelNone, ClassMapping: LevelNone, ClassComparison: LevelNone,
		},
		Hybrid: {
			ClassBasic: LevelAS1, ClassStore: LevelAS1, ClassBranch: LevelIR,
			ClassCall: LevelAS1, ClassMapping: LevelAS1, ClassComparison: LevelIR,
		},
		Ferrum: {
			ClassBasic: LevelAS2, ClassStore: LevelAS2, ClassBranch: LevelAS2,
			ClassCall: LevelAS2, ClassMapping: LevelAS2, ClassComparison: LevelAS2,
		},
	}
}

// Table2Row describes one benchmark (Table II of the paper), extended with
// the static assembly instruction count our backend produces, which
// §IV-B3 correlates transform time against.
type Table2Row struct {
	Benchmark   string
	Suite       string
	Domain      string
	IRInsts     int
	StaticInsts int
}

// Table2 returns the benchmark details table. The unoptimised raw build it
// reports static counts from is memoised through Options.Cache, so a suite
// run shares it with the raw campaign cells.
func Table2(opts Options) ([]Table2Row, error) {
	opts = opts.withDefaults()
	insts, err := opts.instances()
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for _, inst := range insts {
		// Table II reports the backend's unoptimised output regardless of
		// Options.Optimize, as the seed evaluation always has.
		build, err := opts.Cache.build(inst, Raw, BuildOptions{})
		if err != nil {
			return nil, err
		}
		prog := build.Prog
		rows = append(rows, Table2Row{
			Benchmark:   inst.Bench.Name,
			Suite:       inst.Bench.Suite,
			Domain:      inst.Bench.Domain,
			IRInsts:     inst.Mod.InstCount(),
			StaticInsts: prog.StaticInstCount(),
		})
	}
	return rows, nil
}
