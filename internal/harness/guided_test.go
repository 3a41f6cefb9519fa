package harness

import (
	"testing"

	"ferrum/internal/ferrumpass"
	"ferrum/internal/fi"
	"ferrum/internal/machine"
)

func locOf(fn string, idx int) machine.SiteLoc { return machine.SiteLoc{Fn: fn, Idx: idx} }

// TestGuidedBeatsRandomSelection is the SDCTune property: at the same
// protection budget, proneness-guided selection achieves higher coverage
// than a uniform random subset.
func TestGuidedBeatsRandomSelection(t *testing.T) {
	opts := testOpts("bfs").withDefaults()
	insts, err := opts.instances()
	if err != nil {
		t.Fatal(err)
	}
	inst := insts[0]
	rawBuild, err := BuildTechnique(inst.Mod, Raw)
	if err != nil {
		t.Fatal(err)
	}
	tgt := asmTarget(inst, rawBuild, defaultMemSize)

	// Profile proneness on the raw binary.
	profCampaign := fi.Campaign{Samples: 600, Seed: 77}
	stats, err := fi.ProfileProneness(tgt, profCampaign)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no proneness stats")
	}
	if stats[0].Proneness() < stats[len(stats)-1].Proneness() {
		t.Error("stats not sorted by proneness")
	}
	totalSDC := 0
	for _, s := range stats {
		totalSDC += s.SDCs
	}
	if totalSDC == 0 {
		t.Fatal("profiling found no SDCs")
	}

	// Evaluate both selectors at the same static budget.
	const fraction = 0.3
	evalCampaign := fi.Campaign{Samples: 500, Seed: 99}
	rawRes, err := fi.RunAsmCampaign(tgt, evalCampaign)
	if err != nil {
		t.Fatal(err)
	}
	coverage := func(sel ferrumpass.Selector) float64 {
		prot, _, err := ferrumpass.Protect(rawBuild.Prog, ferrumpass.Config{Select: sel})
		if err != nil {
			t.Fatal(err)
		}
		res, err := fi.RunAsmCampaign(fi.AsmTarget{
			Prog: prot, MemSize: 1 << 20, Args: inst.Args,
			Setup: func(w fi.MemWriter) error { return inst.Setup(w) },
		}, evalCampaign)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Coverage(rawRes, res)
	}
	guided := coverage(GuidedSelector(stats, fraction))
	random := coverage(ferrumpass.SelectRatio(fraction, 5))
	t.Logf("coverage at %.0f%% budget: guided %.3f vs random %.3f", fraction*100, guided, random)
	if guided <= random {
		t.Errorf("guided selection (%.3f) should beat random (%.3f)", guided, random)
	}
}

func TestGuidedSelectorEdges(t *testing.T) {
	sel := GuidedSelector(nil, 1)
	if !sel("f", 0, asmInst{}) {
		t.Error("fraction 1 must protect everything")
	}
	stats := []fi.SiteStats{
		{Loc: locOf("main", 3), Faults: 10, SDCs: 8},
		{Loc: locOf("main", 7), Faults: 10, SDCs: 0},
	}
	sel = GuidedSelector(stats, 0.5)
	if !sel("main", 3, asmInst{}) {
		t.Error("most SDC-prone location not protected")
	}
	if sel("main", 7, asmInst{}) {
		t.Error("benign location protected within half budget")
	}
	if sel("other", 1, asmInst{}) {
		t.Error("unobserved location protected")
	}
}
