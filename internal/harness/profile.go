package harness

import (
	"fmt"
	"strings"

	"ferrum/internal/asm"
)

// ProfileRow attributes one benchmark's dynamic execution under a
// technique to instruction provenance, answering "where does the overhead
// go": how much of the protected run is original program code vs.
// duplicates, checker sequences, SIMD staging and stack requisition.
type ProfileRow struct {
	Benchmark string
	Technique Technique
	DynInsts  uint64
	Fractions map[asm.Tag]float64
	// ScalarWork/VectorWork are the total unit costs issued per tag.
	ScalarWork map[asm.Tag]float64
	VectorWork map[asm.Tag]float64
}

// Profile runs every benchmark under every technique with dynamic
// attribution enabled. Each (benchmark × technique) profiled run is an
// independent scheduler cell; builds are memoised through Options.Cache.
func Profile(opts Options) ([]ProfileRow, error) {
	opts = opts.withDefaults()
	insts, err := opts.instances()
	if err != nil {
		return nil, err
	}
	s := newScheduler("profile", opts)
	techs := append([]Technique{Raw}, Techniques...)
	rows := make([]ProfileRow, len(insts)*len(techs))
	var cells []cellSpec
	for bi, inst := range insts {
		for ti, tech := range techs {
			idx := bi*len(techs) + ti
			cells = append(cells, cellSpec{
				name: inst.Bench.Name + "/" + string(tech),
				run: func(cc *cellCtx) error {
					dec, err := s.decoded(cc.cx, instanceAt{inst, opts.Seed}, tech)
					if err != nil {
						return fmt.Errorf("%s/%s: %w", inst.Bench.Name, tech, err)
					}
					res, err := runGolden(cc.cx, inst, dec, true)
					if err != nil {
						return fmt.Errorf("%s/%s: %w", inst.Bench.Name, tech, err)
					}
					row := ProfileRow{
						Benchmark:  inst.Bench.Name,
						Technique:  tech,
						DynInsts:   res.DynInsts,
						Fractions:  map[asm.Tag]float64{},
						ScalarWork: map[asm.Tag]float64{},
						VectorWork: map[asm.Tag]float64{},
					}
					for t := asm.TagProgram; t <= asm.TagRuntime; t++ {
						row.Fractions[t] = res.Profile.TagFraction(t)
						row.ScalarWork[t] = res.Profile.TagScalar[t]
						row.VectorWork[t] = res.Profile.TagVector[t]
					}
					rows[idx] = row
					return nil
				},
			})
		}
	}
	if err := s.run(cells); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderProfile renders the dynamic-attribution table.
func RenderProfile(rows []ProfileRow) string {
	t := &table{header: []string{"benchmark", "technique", "dyn insts",
		"program", "dup", "check", "stage", "spill"}}
	last := ""
	for _, r := range rows {
		name := ""
		if r.Benchmark != last {
			name, last = r.Benchmark, r.Benchmark
		}
		t.add(name, string(r.Technique), fmt.Sprintf("%d", r.DynInsts),
			pct(r.Fractions[asm.TagProgram]), pct(r.Fractions[asm.TagDup]),
			pct(r.Fractions[asm.TagCheck]), pct(r.Fractions[asm.TagStage]),
			pct(r.Fractions[asm.TagSpill]))
	}
	var b strings.Builder
	b.WriteString("Dynamic attribution — where each technique's instructions go\n")
	b.WriteString("(fractions of dynamically executed instructions by provenance)\n\n")
	b.WriteString(t.String())
	return b.String()
}
