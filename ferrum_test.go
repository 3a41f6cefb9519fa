package ferrum

import (
	"strings"
	"testing"

	"ferrum/internal/ir"
)

const irOpMul = ir.OpMul

const quickSrc = `
func @main(%n) {
entry:
  %acc = alloca 1
  %i = alloca 1
  store 0, %acc
  store 1, %i
  br loop
loop:
  %iv = load %i
  %c = icmp sle %iv, %n
  br %c, body, done
body:
  %a = load %acc
  %a2 = add %a, %iv
  store %a2, %acc
  %i2 = add %iv, 1
  store %i2, %i
  br loop
done:
  %r = load %acc
  out %r
  ret %r
}
`

func TestPublicPipelineEndToEnd(t *testing.T) {
	pipe := New()
	prog, err := pipe.CompileIR(quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	prot, rep, err := pipe.Protect(prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SIMDEnabled == 0 {
		t.Error("no SIMD-enabled instructions reported")
	}
	res, err := pipe.Run(prot, []uint64{100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != 5050 {
		t.Fatalf("output = %v", res.Output)
	}

	rawCamp, err := pipe.Campaign(prog, []uint64{100}, nil, Campaign{Samples: 150, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	protCamp, err := pipe.Campaign(prot, []uint64{100}, nil, Campaign{Samples: 150, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := Coverage(rawCamp, protCamp); got != 1 {
		t.Errorf("coverage = %v, want 1", got)
	}
	if oh := Overhead(rawCamp.Cycles, protCamp.Cycles); oh <= 0 {
		t.Errorf("overhead = %v", oh)
	}
}

func TestPublicBenchmarkAccess(t *testing.T) {
	if len(Benchmarks()) != 8 {
		t.Fatalf("benchmarks = %d", len(Benchmarks()))
	}
	b, ok := BenchmarkByName("pathfinder")
	if !ok {
		t.Fatal("pathfinder missing")
	}
	inst, err := b.Instantiate(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pipe := New()
	prog, err := pipe.Compile(inst.Mod)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Verify(inst.Mod, prog, inst.Args, wordMap(inst)); err != nil {
		t.Fatal(err)
	}
}

func wordMap(inst *BenchmarkInstance) map[uint64]uint64 {
	m := map[uint64]uint64{}
	for i, v := range inst.Words {
		m[8192+8*uint64(i)] = v
	}
	return m
}

func TestPublicTables(t *testing.T) {
	if !strings.Contains(RenderTable1(), "ferrum") {
		t.Error("Table I render broken")
	}
	rows, err := Table2(ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("table 2 rows = %d", len(rows))
	}
}

func TestPublicProtectVariants(t *testing.T) {
	pipe := New()
	mod, err := ParseIR(quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	ireddi, err := pipe.ProtectModuleIREDDI(mod)
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := pipe.ProtectModuleHybrid(mod)
	if err != nil {
		t.Fatal(err)
	}
	fer, _, err := pipe.ProtectModuleFerrum(mod)
	if err != nil {
		t.Fatal(err)
	}
	for name, prog := range map[string]*Program{"ir-eddi": ireddi, "hybrid": hybrid, "ferrum": fer} {
		res, err := pipe.Run(prog, []uint64{10}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Output) != 1 || res.Output[0] != 55 {
			t.Errorf("%s: output = %v", name, res.Output)
		}
	}
}

func TestPublicIRBuilder(t *testing.T) {
	b := NewIRBuilder()
	f := b.Func("main", "n")
	e := f.Entry()
	sq := e.Bin(irOpMul, f.Param("n"), f.Param("n"))
	e.Out(sq)
	e.Ret(sq)
	mod, err := b.Module()
	if err != nil {
		t.Fatal(err)
	}
	pipe := New()
	prog, err := pipe.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Run(prog, []uint64{6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != 36 {
		t.Fatalf("output = %v", res.Output)
	}
}

func TestPublicGuidedSelection(t *testing.T) {
	pipe := New()
	prog, err := pipe.CompileIR(quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ProfileProneness(prog, 1<<20, []uint64{40}, nil, Campaign{Samples: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no stats")
	}
	pipe.Ferrum = Config{Select: GuidedSelector(stats, 0.5)}
	prot, rep, err := pipe.Protect(prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SIMDEnabled+rep.General == 0 {
		t.Error("guided selector protected nothing")
	}
	res, err := pipe.Run(prot, []uint64{40}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != 820 {
		t.Fatalf("output = %v", res.Output)
	}
}
