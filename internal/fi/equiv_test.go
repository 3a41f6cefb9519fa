package fi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ferrum/internal/backend"
	"ferrum/internal/eddi"
	"ferrum/internal/ferrumpass"
	"ferrum/internal/irpass"
	"ferrum/internal/obs"
	"ferrum/internal/rodinia"
)

// The checkpointed fast path must be invisible in results: byte-identical
// Result.Counts and detection-latency summaries against the direct
// (NoCheckpoint) path for every K and worker count, per benchmark and
// technique, at both injection levels. Asm campaigns also end plans at the
// first golden checkpoint their state rejoins, so these comparisons are
// what pins that early exit as exact. These tests are the PR gate run
// under -race (go test -run Equiv -race).

const equivSteps = 1 << 20 // bounds hang-outcome runs; shared by both paths

func equivBench(t *testing.T, name string) *rodinia.Instance {
	t.Helper()
	b, ok := rodinia.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	inst, err := b.Instantiate(1, 99)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func equivAsmTarget(t *testing.T, inst *rodinia.Instance, protect bool) AsmTarget {
	t.Helper()
	if protect {
		return equivTechTarget(t, inst, "ferrum")
	}
	return equivTechTarget(t, inst, "raw")
}

// equivAsmTechs are the asm-level techniques the equivalence suite covers:
// unprotected code, FERRUM and the hybrid assembly-level EDDI baseline.
var equivAsmTechs = []string{"raw", "ferrum", "hybrid"}

func equivTechTarget(t *testing.T, inst *rodinia.Instance, tech string) AsmTarget {
	t.Helper()
	prog, err := backend.Compile(inst.Mod)
	if err != nil {
		t.Fatal(err)
	}
	switch tech {
	case "ferrum":
		prog, _, err = ferrumpass.Protect(prog, ferrumpass.Config{})
	case "hybrid":
		prog, _, err = eddi.Protect(prog)
	}
	if err != nil {
		t.Fatal(err)
	}
	return AsmTarget{Prog: prog, MemSize: memSize, Args: inst.Args,
		Setup: func(w MemWriter) error { return inst.Setup(w) }}
}

func equivIRTarget(t *testing.T, inst *rodinia.Instance, protect bool) IRTarget {
	t.Helper()
	mod := inst.Mod
	if protect {
		var err error
		mod, err = irpass.EDDI(mod)
		if err != nil {
			t.Fatal(err)
		}
	}
	return IRTarget{Mod: mod, MemSize: memSize, Args: inst.Args,
		Setup: func(w MemWriter) error { return inst.Setup(w) }}
}

// checkEquiv runs the direct path once and the checkpointed path across
// K ∈ {1, auto, DynSites} × workers ∈ {1, 8}, requiring identical Counts
// and identical per-outcome latency histograms (bucket counts, Sum, N).
// thins marks a converging asm campaign, whose auto schedule is thinned in
// the golden run: the programs and Samples here make it thin at least
// twice, so the checked schedule is one the doubling produced.
func checkEquiv(t *testing.T, name string, thins bool, run func(Campaign) (Result, error)) {
	t.Helper()
	base := Campaign{Samples: 80, Seed: 12345, MaxSteps: equivSteps, Workers: 2}

	direct := base
	direct.NoCheckpoint = true
	want, err := run(direct)
	if err != nil {
		t.Fatalf("%s: direct: %v", name, err)
	}
	if want.Checkpoint.Enabled {
		t.Fatalf("%s: NoCheckpoint campaign reported checkpointing", name)
	}

	for _, k := range []uint64{1, 0 /* auto */, want.DynSites} {
		for _, workers := range []int{1, 8} {
			c := base
			c.every = k
			c.Workers = workers
			got, err := run(c)
			if err != nil {
				t.Fatalf("%s K=%d w=%d: %v", name, k, workers, err)
			}
			ctx := fmt.Sprintf("%s K=%d workers=%d", name, k, workers)
			if got.Counts != want.Counts {
				t.Errorf("%s: counts %v != direct %v", ctx, got.Counts, want.Counts)
			}
			checkLatencyEquiv(t, ctx, got.Latency, want.Latency)
			if got.DynSites != want.DynSites || !slices.Equal(got.Golden, want.Golden) {
				t.Errorf("%s: golden-run fields differ", ctx)
			}
			cp := got.Checkpoint
			if !cp.Enabled {
				t.Fatalf("%s: checkpointing not enabled", ctx)
			}
			if cp.Restores+cp.ColdStarts != int64(base.Samples) {
				t.Errorf("%s: restores %d + cold starts %d != samples %d",
					ctx, cp.Restores, cp.ColdStarts, base.Samples)
			}
			if k == 1 && cp.ColdStarts > int64(base.Samples)/4 {
				// With a snapshot at every site only site-0 faults cold-start.
				t.Errorf("%s: %d cold starts at K=1", ctx, cp.ColdStarts)
			}
			if cp.Restores > 0 && cp.SkippedInsts == 0 {
				t.Errorf("%s: restores but no instructions skipped", ctx)
			}
			if k == 0 && thins && (cp.Interval < 4 || bits.OnesCount64(cp.Interval) != 1) {
				t.Errorf("%s: auto schedule ended at K=%d, want a power of two thinned at least twice", ctx, cp.Interval)
			}
		}
	}
}

// checkLatencyEquiv requires two latency summaries to agree exactly: the
// unit, and per outcome the bucket counts, Sum and N. A shortcut that got
// the detection latency wrong while keeping every outcome right fails here.
func checkLatencyEquiv(t *testing.T, ctx string, got, want LatencySummary) {
	t.Helper()
	if got.Unit != want.Unit {
		t.Errorf("%s: latency unit %q != direct %q", ctx, got.Unit, want.Unit)
	}
	for o := Outcome(0); o < numOutcomes; o++ {
		g, w := got.ByOutcome[o], want.ByOutcome[o]
		if !reflect.DeepEqual(g.Counts, w.Counts) || g.Sum != w.Sum || g.N != w.N {
			t.Errorf("%s: %v latency (n=%d sum=%v buckets=%v) != direct (n=%d sum=%v buckets=%v)",
				ctx, o, g.N, g.Sum, g.Counts, w.N, w.Sum, w.Counts)
		}
	}
}

func TestEquivAsmCampaigns(t *testing.T) {
	for _, bench := range []string{"bfs", "lud"} {
		inst := equivBench(t, bench)
		for _, tech := range equivAsmTechs {
			tgt := equivTechTarget(t, inst, tech)
			checkEquiv(t, "asm/"+bench+"/"+tech, true, func(c Campaign) (Result, error) {
				return RunAsmCampaign(tgt, c)
			})
		}
	}
}

// TestEquivJournalPlanRecords: a journaled checkpointed campaign writes the
// same plan records as the NoCheckpoint campaign, byte for byte, at both
// injection levels. Plans complete in site order under checkpointing, so
// the records are compared as sorted lines; the cell records must agree on
// everything but the checkpointing summary.
func TestEquivJournalPlanRecords(t *testing.T) {
	inst := equivBench(t, "bfs")
	dir := t.TempDir()
	type target struct {
		tech string
		run  func(Campaign) (Result, error)
	}
	var targets []target
	for _, tech := range equivAsmTechs {
		tgt := equivTechTarget(t, inst, tech)
		targets = append(targets, target{tech, func(c Campaign) (Result, error) { return RunAsmCampaign(tgt, c) }})
	}
	for _, protect := range []bool{false, true} {
		tgt := equivIRTarget(t, inst, protect)
		tech := map[bool]string{false: "ir-raw", true: "ir-eddi"}[protect]
		targets = append(targets, target{tech, func(c Campaign) (Result, error) { return RunIRCampaign(tgt, c) }})
	}
	for _, tg := range targets {
		tech, run := tg.tech, tg.run
		journal := func(name string, noCheckpoint bool) ([]string, Result) {
			t.Helper()
			path := filepath.Join(dir, tech+"-"+name+".ndjson")
			j, err := CreateJournal(path, testMeta)
			if err != nil {
				t.Fatal(err)
			}
			c := Campaign{Samples: 200, Seed: 4242, MaxSteps: equivSteps, Workers: 4,
				NoCheckpoint: noCheckpoint, Journal: j, Key: "bfs/" + tech}
			if _, err := run(c); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var plans []string
			var cell Result
			for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
				var r journalRecord
				if err := json.Unmarshal(line, &r); err != nil {
					t.Fatal(err)
				}
				switch r.T {
				case "plan":
					plans = append(plans, string(line))
				case "cell":
					if err := json.Unmarshal(r.Res, &cell); err != nil {
						t.Fatal(err)
					}
				}
			}
			sort.Strings(plans)
			cell.Checkpoint = CheckpointSummary{}
			return plans, cell
		}
		wantPlans, wantCell := journal("direct", true)
		gotPlans, gotCell := journal("checkpointed", false)
		if len(wantPlans) != 200 {
			t.Fatalf("%s: direct journal has %d plan records, want 200", tech, len(wantPlans))
		}
		if len(gotPlans) != len(wantPlans) {
			t.Fatalf("%s: checkpointed journal has %d plan records, direct %d", tech, len(gotPlans), len(wantPlans))
		}
		for i := range wantPlans {
			if gotPlans[i] != wantPlans[i] {
				t.Fatalf("%s: plan record differs from the direct journal's:\n got %s\nwant %s",
					tech, gotPlans[i], wantPlans[i])
			}
		}
		if !reflect.DeepEqual(gotCell, wantCell) {
			t.Errorf("%s: cell record differs from the direct journal's:\n got %+v\nwant %+v", tech, gotCell, wantCell)
		}
	}
}

func TestEquivIRCampaigns(t *testing.T) {
	for _, bench := range []string{"bfs", "lud"} {
		inst := equivBench(t, bench)
		for _, protect := range []bool{false, true} {
			tech := map[bool]string{false: "raw", true: "ir-eddi"}[protect]
			tgt := equivIRTarget(t, inst, protect)
			checkEquiv(t, "ir/"+bench+"/"+tech, false, func(c Campaign) (Result, error) {
				return RunIRCampaign(tgt, c)
			})
		}
	}
}

// TestEquivMultiBit pushes multi-bit (Extra) faults through the resume path.
func TestEquivMultiBit(t *testing.T) {
	inst := equivBench(t, "bfs")
	tgt := equivAsmTarget(t, inst, true)
	base := Campaign{Samples: 60, Seed: 777, MaxSteps: equivSteps, Workers: 8, BitsPerFault: 3}

	direct := base
	direct.NoCheckpoint = true
	want, err := RunAsmCampaign(tgt, direct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunAsmCampaign(tgt, base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counts != want.Counts {
		t.Errorf("multi-bit counts %v != direct %v", got.Counts, want.Counts)
	}
	checkLatencyEquiv(t, "multi-bit", got.Latency, want.Latency)
}

// TestEquivStatsSink checks the checkpointing counters a shared observer
// accumulates across an asm and an IR campaign.
func TestEquivStatsSink(t *testing.T) {
	inst := equivBench(t, "bfs")
	ob := obs.New()
	c := Campaign{Samples: 40, Seed: 5, MaxSteps: equivSteps, Workers: 4, Obs: ob.Cell("stats", 0)}
	asmRes, err := RunAsmCampaign(equivAsmTarget(t, inst, false), c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunIRCampaign(equivIRTarget(t, inst, false), c); err != nil {
		t.Fatal(err)
	}
	snap := ob.Reg.Snapshot()
	if n := snap.Counters[obs.MCkptCampaigns]; n != 2 {
		t.Fatalf("ckpt.campaigns = %d", n)
	}
	if r, cs := snap.Counters[obs.MCkptRestores], snap.Counters[obs.MCkptColdStarts]; r+cs != 80 {
		t.Errorf("restores %d + cold starts %d != 80", r, cs)
	}
	if snap.Counters[obs.MCkptSnapshots] == 0 || snap.Counters[obs.MCkptBytes] == 0 {
		t.Errorf("no snapshots recorded: %d/%d",
			snap.Counters[obs.MCkptSnapshots], snap.Counters[obs.MCkptBytes])
	}
	// A converged plan ends with the golden output, so it is Benign; IR
	// campaigns never converge.
	if n, benign := snap.Counters[obs.MCkptConverged], int64(asmRes.Count(Benign)); n > benign {
		t.Errorf("ckpt.converged = %d exceeds the asm campaign's %d benign plans", n, benign)
	}
}

// TestEquivConvergedCounter: protected plans mostly end Benign, and most of
// those rejoin the golden run at a later checkpoint; ckpt.converged counts
// them, never more than the Benign plans, and never without checkpointing.
func TestEquivConvergedCounter(t *testing.T) {
	tgt := equivTechTarget(t, equivBench(t, "lud"), "hybrid")
	for _, noCheckpoint := range []bool{false, true} {
		ob := obs.New()
		c := Campaign{Samples: 120, Seed: 9, MaxSteps: equivSteps, Workers: 2,
			NoCheckpoint: noCheckpoint, Obs: ob.Cell("conv", 0)}
		res, err := RunAsmCampaign(tgt, c)
		if err != nil {
			t.Fatal(err)
		}
		n := ob.Reg.Snapshot().Counters[obs.MCkptConverged]
		switch {
		case noCheckpoint && n != 0:
			t.Errorf("NoCheckpoint campaign converged %d plans", n)
		case !noCheckpoint && (n == 0 || n > int64(res.Count(Benign))):
			t.Errorf("ckpt.converged = %d, want within (0, %d benign]", n, res.Count(Benign))
		}
	}
}

// TestEquivFaultAtSiteZero pins the edge where the fault precedes every
// snapshot: it must cold-start and still match the direct path.
func TestEquivFaultAtSiteZero(t *testing.T) {
	tgt := asmTarget(t, false)
	// Seed-independent check: run one plan at site 0 both ways via
	// single-sample campaigns with a forced interval.
	for _, k := range []uint64{1, 4} {
		direct := Campaign{Samples: 1, Seed: 3, NoCheckpoint: true}
		want, err := RunAsmCampaign(tgt, direct)
		if err != nil {
			t.Fatal(err)
		}
		ck := Campaign{Samples: 1, Seed: 3, every: k}
		got, err := RunAsmCampaign(tgt, ck)
		if err != nil {
			t.Fatal(err)
		}
		if got.Counts != want.Counts {
			t.Errorf("K=%d: counts %v != %v", k, got.Counts, want.Counts)
		}
	}
}
