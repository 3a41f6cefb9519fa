package fi

import (
	"fmt"
	"testing"

	"ferrum/internal/backend"
	"ferrum/internal/ferrumpass"
	"ferrum/internal/irpass"
	"ferrum/internal/obs"
	"ferrum/internal/rodinia"
)

// The checkpointed fast path must be invisible in results: byte-identical
// Result.Counts against the direct (NoCheckpoint) path for every K and
// worker count, per benchmark and technique, at both injection levels.
// These tests are the PR gate run under -race (go test -run Equiv -race).

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
	prog, err := backend.Compile(inst.Mod)
	if err != nil {
		t.Fatal(err)
	}
	if protect {
		prog, _, err = ferrumpass.Protect(prog, ferrumpass.Config{})
		if err != nil {
			t.Fatal(err)
		}
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
// K ∈ {1, auto, DynSites} × workers ∈ {1, 8}, requiring identical Counts.
func checkEquiv(t *testing.T, name string, run func(Campaign) (Result, error)) {
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
			c.CheckpointEvery = k
			c.Workers = workers
			got, err := run(c)
			if err != nil {
				t.Fatalf("%s K=%d w=%d: %v", name, k, workers, err)
			}
			ctx := fmt.Sprintf("%s K=%d workers=%d", name, k, workers)
			if got.Counts != want.Counts {
				t.Errorf("%s: counts %v != direct %v", ctx, got.Counts, want.Counts)
			}
			if got.DynSites != want.DynSites || !equalOutput(got.Golden, want.Golden) {
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
		}
	}
}

func TestEquivAsmCampaigns(t *testing.T) {
	for _, bench := range []string{"bfs", "lud"} {
		inst := equivBench(t, bench)
		for _, protect := range []bool{false, true} {
			tech := map[bool]string{false: "raw", true: "ferrum"}[protect]
			tgt := equivAsmTarget(t, inst, protect)
			checkEquiv(t, "asm/"+bench+"/"+tech, func(c Campaign) (Result, error) {
				return RunAsmCampaign(tgt, c)
			})
		}
	}
}

func TestEquivIRCampaigns(t *testing.T) {
	for _, bench := range []string{"bfs", "lud"} {
		inst := equivBench(t, bench)
		for _, protect := range []bool{false, true} {
			tech := map[bool]string{false: "raw", true: "ir-eddi"}[protect]
			tgt := equivIRTarget(t, inst, protect)
			checkEquiv(t, "ir/"+bench+"/"+tech, func(c Campaign) (Result, error) {
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
}

// TestEquivStatsSink checks the checkpointing counters a shared observer
// accumulates across an asm and an IR campaign.
func TestEquivStatsSink(t *testing.T) {
	inst := equivBench(t, "bfs")
	ob := obs.New()
	c := Campaign{Samples: 40, Seed: 5, MaxSteps: equivSteps, Workers: 4, Obs: ob.Cell("stats", 0)}
	if _, err := RunAsmCampaign(equivAsmTarget(t, inst, false), c); err != nil {
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
		ck := Campaign{Samples: 1, Seed: 3, CheckpointEvery: k}
		got, err := RunAsmCampaign(tgt, ck)
		if err != nil {
			t.Fatal(err)
		}
		if got.Counts != want.Counts {
			t.Errorf("K=%d: counts %v != %v", k, got.Counts, want.Counts)
		}
	}
}
