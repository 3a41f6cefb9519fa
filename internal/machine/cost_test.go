package machine

import (
	"math"
	"reflect"
	"testing"

	"ferrum/internal/rodinia"
)

// maxQuarters bounds every prefix total and cycle clock, in quarter
// cycles. A float64 holds every integer below 2^53 exactly, so sums and
// differences of quarter-cycle costs that stay below 2^50 quarters round
// nowhere: a segment charged as a prefix difference adds up to the
// per-instruction sum bit for bit, with room to spare.
const maxQuarters = 1 << 50

// quarterCycles reports whether v is a whole number of quarter cycles.
func quarterCycles(v float64) bool {
	q := v * 4
	return q == math.Trunc(q) && math.Abs(q) < maxQuarters
}

// TestCostsAreQuarterCycles guards the exactness argument behind
// per-segment charging (runBlocks): every DefaultCostModel cost, and every
// decoded uop's scalar, vector and taken-branch cost in the eight Rodinia
// programs under each technique, is a whole number of quarter cycles, and
// each program's prefix totals, and the cycle clock of any run within the
// default step budget, stay below 2^50 quarters. A cost that breaks this
// would make segment sums round differently from per-instruction sums, so
// it must fail here instead of shifting cycles silently.
func TestCostsAreQuarterCycles(t *testing.T) {
	cm := reflect.ValueOf(DefaultCostModel()).Elem()
	maxCost := 0.0
	for i := 0; i < cm.NumField(); i++ {
		v := cm.Field(i).Float()
		if !quarterCycles(v) {
			t.Errorf("CostModel.%s = %v is not a whole number of quarter cycles", cm.Type().Field(i).Name, v)
		}
		maxCost += v
	}
	// No instruction costs more than the whole model together, so this
	// bounds the cycle clock of every run within the default budget.
	if q := maxCost * 4 * DefaultMaxSteps; q >= maxQuarters {
		t.Errorf("a %d-step run can reach %v quarter cycles, not below 2^50", DefaultMaxSteps, q)
	}
	for _, bench := range rodinia.Names() {
		for tech, prog := range equivPrograms(t, bench) {
			d, err := Decode(prog)
			if err != nil {
				t.Fatal(err)
			}
			for i := range d.uops {
				c := d.uops[i].cost
				if !quarterCycles(c.scalar) || !quarterCycles(c.vector) || !quarterCycles(c.takenExtra) {
					t.Errorf("%s/%s: %s+%d costs %+v, not whole quarter cycles",
						bench, tech, d.insts[i].fn, d.insts[i].idx, c)
				}
			}
			n := len(d.uops)
			for name, sum := range map[string][]float64{"scalar": d.scalarSum, "vector": d.vectorSum} {
				if !quarterCycles(sum[n]) {
					t.Errorf("%s/%s: %s prefix total %v is not below 2^50 quarter cycles", bench, tech, name, sum[n])
				}
			}
		}
	}
}
