package irpass

import (
	"math/rand"
	"strings"
	"testing"

	"ferrum/internal/asm"
	"ferrum/internal/backend"
	"ferrum/internal/ir"
	"ferrum/internal/machine"
	"ferrum/internal/progen"
)

const memSize = 1 << 20

const loopSrc = `
func @main(%n, %base) {
entry:
  %acc = alloca 1
  %i = alloca 1
  store 0, %acc
  store 0, %i
  br loop
loop:
  %iv = load %i
  %c = icmp slt %iv, %n
  br %c, body, done
body:
  %p = gep %base, %iv
  %v = load %p
  %a = load %acc
  %a2 = add %a, %v
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

func parse(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return m
}

func interpret(t *testing.T, mod *ir.Module, args []uint64, load func(func(addr, v uint64))) ir.RunResult {
	t.Helper()
	ip, err := ir.NewInterp(mod, memSize)
	if err != nil {
		t.Fatalf("NewInterp: %v", err)
	}
	if load != nil {
		load(func(addr, v uint64) {
			if err := ip.WriteWordImage(addr, v); err != nil {
				t.Fatal(err)
			}
		})
	}
	return ip.Run(ir.RunOpts{Args: args})
}

func loadArray(base uint64, vals []uint64) func(func(addr, v uint64)) {
	return func(w func(addr, v uint64)) {
		for i, v := range vals {
			w(base+8*uint64(i), v)
		}
	}
}

func TestEDDIPreservesSemantics(t *testing.T) {
	mod := parse(t, loopSrc)
	prot, err := EDDI(mod)
	if err != nil {
		t.Fatal(err)
	}
	args := []uint64{4, 8192}
	data := loadArray(8192, []uint64{10, 20, 30, 40})
	orig := interpret(t, mod, args, data)
	protRes := interpret(t, prot, args, data)
	if orig.Outcome != ir.OutcomeOK || protRes.Outcome != ir.OutcomeOK {
		t.Fatalf("outcomes: %v / %v (%s)", orig.Outcome, protRes.Outcome, protRes.CrashMsg)
	}
	if orig.Output[0] != 100 || protRes.Output[0] != 100 {
		t.Fatalf("outputs: %v / %v", orig.Output, protRes.Output)
	}
}

func TestEDDIDuplicatesAndChecks(t *testing.T) {
	mod := parse(t, loopSrc)
	prot, err := EDDI(mod)
	if err != nil {
		t.Fatal(err)
	}
	text := prot.String()
	if !strings.Contains(text, "%iv.d = load") {
		t.Errorf("missing duplicated load:\n%s", text)
	}
	if !strings.Contains(text, "%c.d = icmp slt") {
		t.Errorf("missing duplicated icmp:\n%s", text)
	}
	if !strings.Contains(text, "check %c, %c.d") {
		t.Errorf("missing pre-branch check:\n%s", text)
	}
	if !strings.Contains(text, "check %a2, %a2.d") {
		t.Errorf("missing pre-store value check:\n%s", text)
	}
	// Original module untouched.
	if strings.Contains(mod.String(), ".d") {
		t.Error("EDDI mutated its input module")
	}
}

func TestEDDIDoesNotDuplicateSyncPoints(t *testing.T) {
	mod := parse(t, loopSrc)
	prot, err := EDDI(mod)
	if err != nil {
		t.Fatal(err)
	}
	f := prot.Func("main")
	stores, calls, outs := 0, 0, 0
	origF := mod.Func("main")
	origStores := 0
	for _, b := range origF.Blocks {
		for _, in := range b.Insts {
			if in.Op == ir.OpStore {
				origStores++
			}
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			switch in.Op {
			case ir.OpStore:
				stores++
			case ir.OpCall:
				calls++
			case ir.OpOut:
				outs++
			}
		}
	}
	if stores != origStores {
		t.Errorf("stores duplicated: %d vs %d", stores, origStores)
	}
	if outs != 1 {
		t.Errorf("outs = %d, want 1", outs)
	}
	_ = calls
}

// TestEDDIDetectsIRFaults is the "anticipated coverage" property: injecting
// a bit flip into any value-producing IR instruction of the protected
// program must never produce a silent wrong output.
func TestEDDIDetectsIRFaults(t *testing.T) {
	mod := parse(t, loopSrc)
	prot, err := EDDI(mod)
	if err != nil {
		t.Fatal(err)
	}
	args := []uint64{4, 8192}
	data := loadArray(8192, []uint64{10, 20, 30, 40})

	ip, err := ir.NewInterp(prot, memSize)
	if err != nil {
		t.Fatal(err)
	}
	data(func(addr, v uint64) {
		if err := ip.WriteWordImage(addr, v); err != nil {
			t.Fatal(err)
		}
	})
	golden := ip.Run(ir.RunOpts{Args: args})
	if golden.Outcome != ir.OutcomeOK {
		t.Fatalf("golden outcome: %v", golden.Outcome)
	}
	sdc := 0
	for site := uint64(0); site < golden.Sites; site += 3 {
		for _, bit := range []uint{0, 7, 31, 63} {
			res := ip.Run(ir.RunOpts{Args: args, Fault: &ir.Fault{Site: site, Bit: bit}})
			if res.Outcome == ir.OutcomeOK && !equalOutput(res.Output, golden.Output) {
				sdc++
				t.Errorf("site %d bit %d: silent corruption %v", site, bit, res.Output)
			}
		}
	}
	if sdc != 0 {
		t.Errorf("%d SDCs in EDDI-protected IR", sdc)
	}
}

func equalOutput(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSignaturePreservesSemantics(t *testing.T) {
	mod := parse(t, loopSrc)
	prot, err := Signature(mod)
	if err != nil {
		t.Fatal(err)
	}
	args := []uint64{4, 8192}
	data := loadArray(8192, []uint64{1, 2, 3, 4})
	orig := interpret(t, mod, args, data)
	protRes := interpret(t, prot, args, data)
	if orig.Outcome != ir.OutcomeOK || protRes.Outcome != ir.OutcomeOK {
		t.Fatalf("outcomes: %v / %v (%s)", orig.Outcome, protRes.Outcome, protRes.CrashMsg)
	}
	if !equalOutput(orig.Output, protRes.Output) {
		t.Fatalf("outputs differ: %v vs %v", orig.Output, protRes.Output)
	}
}

func TestSignatureSplitsEdges(t *testing.T) {
	mod := parse(t, loopSrc)
	prot, err := Signature(mod)
	if err != nil {
		t.Fatal(err)
	}
	f := prot.Func("main")
	edges := 0
	for _, b := range f.Blocks {
		if strings.Contains(b.Name, ".sigedge") {
			edges++
			if len(b.Insts) < 2 {
				t.Errorf("edge block %s too small", b.Name)
			}
			if b.Insts[0].Op != ir.OpCheck && b.Insts[1].Op != ir.OpCheck {
				t.Errorf("edge block %s has no check", b.Name)
			}
		}
	}
	if edges != 2 {
		t.Errorf("edge blocks = %d, want 2", edges)
	}
	if !strings.Contains(prot.String(), SigSuffix) {
		t.Error("no signature duplicate emitted")
	}
}

// TestSignatureCatchesBranchFlip verifies the mechanism end to end at the
// assembly level: flip the flags of the rematerialised compare before the
// conditional jump and the signature check in the edge block must trap.
func TestSignatureCatchesBranchFlip(t *testing.T) {
	src := `
func @main(%n) {
entry:
  %c = icmp sgt %n, 10
  br %c, big, small
big:
  out 1
  ret
small:
  out 0
  ret
}
`
	mod := parse(t, src)
	prot, err := Signature(mod)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := backend.Compile(prot)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(prog, memSize)
	if err != nil {
		t.Fatal(err)
	}
	golden := m.Run(machine.RunOpts{Args: []uint64{42}, RecordSiteStatics: true})
	statics := m.StaticInstrs()
	if golden.Outcome != machine.OutcomeOK || golden.Output[0] != 1 {
		t.Fatalf("golden: %+v", golden)
	}
	// Flip every flags site (the branch-direction faults Signature
	// protects); any wrong-direction branch must be detected, never
	// silent.
	silent := 0
	for site := uint64(0); site < golden.DynSites; site++ {
		if statics[golden.SiteStatics[site]].Dest.Kind != asm.DestFlags {
			continue
		}
		for bit := uint(0); bit < 4; bit++ {
			res := m.Run(machine.RunOpts{Args: []uint64{42}, Fault: &machine.Fault{Site: site, Bit: bit}})
			if res.Outcome == machine.OutcomeOK && !equalOutput(res.Output, golden.Output) {
				silent++
			}
		}
	}
	if silent != 0 {
		t.Errorf("%d silent wrong-direction branches escaped the signature check", silent)
	}
}

// Without Signature, the same flag flips cause silent corruptions — the
// cross-layer gap exists.
func TestUnprotectedBranchFlipIsSilent(t *testing.T) {
	src := `
func @main(%n) {
entry:
  %c = icmp sgt %n, 10
  br %c, big, small
big:
  out 1
  ret
small:
  out 0
  ret
}
`
	mod := parse(t, src)
	prog, err := backend.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(prog, memSize)
	if err != nil {
		t.Fatal(err)
	}
	golden := m.Run(machine.RunOpts{Args: []uint64{42}, RecordSiteStatics: true})
	statics := m.StaticInstrs()
	silent := 0
	for site := uint64(0); site < golden.DynSites; site++ {
		if statics[golden.SiteStatics[site]].Dest.Kind != asm.DestFlags {
			continue
		}
		for bit := uint(0); bit < 4; bit++ {
			res := m.Run(machine.RunOpts{Args: []uint64{42}, Fault: &machine.Fault{Site: site, Bit: bit}})
			if res.Outcome == machine.OutcomeOK && !equalOutput(res.Output, golden.Output) {
				silent++
			}
		}
	}
	if silent == 0 {
		t.Error("expected at least one silent corruption in the unprotected program")
	}
}

func TestEDDICompilesAndRuns(t *testing.T) {
	mod := parse(t, loopSrc)
	prot, err := EDDI(mod)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := backend.Compile(prot)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(prog, memSize)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []uint64{10, 20, 30, 40} {
		if err := m.WriteWordImage(8192+8*uint64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	res := m.Run(machine.RunOpts{Args: []uint64{4, 8192}})
	if res.Outcome != machine.OutcomeOK || res.Output[0] != 100 {
		t.Fatalf("res = %+v (%s)", res, res.CrashMsg)
	}
}

func TestSignatureParamCondition(t *testing.T) {
	src := `
func @main(%c) {
entry:
  br %c, a, b
a:
  out 1
  ret
b:
  out 0
  ret
}
`
	mod := parse(t, src)
	prot, err := Signature(mod)
	if err != nil {
		t.Fatal(err)
	}
	for _, arg := range []uint64{0, 1, 7} {
		res := interpret(t, prot, []uint64{arg}, nil)
		if res.Outcome != ir.OutcomeOK {
			t.Fatalf("arg %d: outcome %v", arg, res.Outcome)
		}
		want := uint64(0)
		if arg != 0 {
			want = 1
		}
		if res.Output[0] != want {
			t.Errorf("arg %d: output %v, want %d", arg, res.Output, want)
		}
	}
}

func TestEDDIOnConstantConditions(t *testing.T) {
	src := `
func @main() {
entry:
  br 1, a, b
a:
  out 1
  ret
b:
  out 0
  ret
}
`
	mod := parse(t, src)
	for name, pass := range map[string]func(*ir.Module) (*ir.Module, error){"eddi": EDDI, "sig": Signature} {
		prot, err := pass(mod)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := interpret(t, prot, nil, nil)
		if res.Outcome != ir.OutcomeOK || res.Output[0] != 1 {
			t.Errorf("%s: res = %+v", name, res)
		}
	}
}

// TestPassesFuzzPreserveSemantics runs both IR-level passes over random
// generated programs and requires interpreter outputs to be unchanged.
func TestPassesFuzzPreserveSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 50; i++ {
		mod, err := progen.Generate(rng, progen.Options{Stmts: 20, Calls: i%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		args := []uint64{8192, uint64(rng.Int63n(4000)), uint64(rng.Int63n(4000))}
		runMod := func(m *ir.Module) ir.RunResult {
			ip, err := ir.NewInterp(m, memSize)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < 8; s++ {
				if err := ip.WriteWordImage(8192+8*uint64(s), uint64(s*2+1)); err != nil {
					t.Fatal(err)
				}
			}
			return ip.Run(ir.RunOpts{Args: args, MaxSteps: 3_000_000})
		}
		base := runMod(mod)
		if base.Outcome != ir.OutcomeOK {
			t.Fatalf("iter %d: base %v (%s)", i, base.Outcome, base.CrashMsg)
		}
		for name, pass := range map[string]func(*ir.Module) (*ir.Module, error){
			"eddi": EDDI, "signature": Signature,
		} {
			prot, err := pass(mod)
			if err != nil {
				t.Fatalf("iter %d %s: %v", i, name, err)
			}
			res := runMod(prot)
			if res.Outcome != ir.OutcomeOK {
				t.Fatalf("iter %d %s: %v (%s)\n%s", i, name, res.Outcome, res.CrashMsg, prot)
			}
			if len(res.Output) != len(base.Output) {
				t.Fatalf("iter %d %s: output count changed", i, name)
			}
			for j := range res.Output {
				if res.Output[j] != base.Output[j] {
					t.Fatalf("iter %d %s: output[%d] %d vs %d", i, name, j, res.Output[j], base.Output[j])
				}
			}
		}
	}
}

func TestProvenanceMarked(t *testing.T) {
	mod := parse(t, loopSrc)
	prot, err := EDDI(mod)
	if err != nil {
		t.Fatal(err)
	}
	dups, checks := 0, 0
	for _, f := range prot.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				switch in.Prov {
				case ir.ProvDup:
					dups++
				case ir.ProvCheck:
					checks++
				}
			}
		}
	}
	if dups == 0 || checks == 0 {
		t.Errorf("provenance missing: dups=%d checks=%d", dups, checks)
	}
	sig, err := Signature(mod)
	if err != nil {
		t.Fatal(err)
	}
	sigDups := 0
	for _, f := range sig.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				if in.Prov == ir.ProvDup {
					sigDups++
				}
			}
		}
	}
	if sigDups == 0 {
		t.Error("signature pass marked no duplicates")
	}
}
