package machine

import (
	"testing"

	"ferrum/internal/asm"
)

// TestDestBits pins the destination-width table fault planners sample bit
// numbers from: GPR writes expose their writable width, SIMD writes 64 bits
// per touched lane, flag writers the NumFlag condition flags.
func TestDestBits(t *testing.T) {
	cases := []struct {
		name string
		d    asm.Dest
		want uint16
	}{
		{"gpr8", asm.Dest{Kind: asm.DestGPR, Reg: asm.RAX, W: asm.W8}, 8},
		{"gpr16", asm.Dest{Kind: asm.DestGPR, Reg: asm.RAX, W: asm.W16}, 16},
		{"gpr32", asm.Dest{Kind: asm.DestGPR, Reg: asm.RAX, W: asm.W32}, 32},
		{"gpr64", asm.Dest{Kind: asm.DestGPR, Reg: asm.RAX, W: asm.W64}, 64},
		{"gpr-unspecified-width", asm.Dest{Kind: asm.DestGPR, Reg: asm.RAX}, 64},
		{"xmm-one-lane", asm.Dest{Kind: asm.DestXMM, X: 1}, 64},
		{"ymm-lane-span", asm.Dest{Kind: asm.DestXMM, X: 0, LaneLo: 0, LaneHi: 3}, 256},
		{"zmm-lane-span", asm.Dest{Kind: asm.DestXMM, X: 0, LaneLo: 0, LaneHi: 7}, 512},
		{"upper-lane", asm.Dest{Kind: asm.DestXMM, X: 3, LaneLo: 1, LaneHi: 1}, 64},
		{"flags", asm.Dest{Kind: asm.DestFlags}, uint16(asm.NumFlag)},
		{"none", asm.Dest{}, 0},
	}
	for _, c := range cases {
		if got := DestBits(c.d); got != c.want {
			t.Errorf("DestBits(%s) = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestRecordSiteBits: the destination widths a fault planner derives from
// a golden run's site statics are one per dynamic injection site, in
// execution order, matching each site's actual destination — so bits are
// sampled inside the destination instead of a flat [0, 64).
func TestRecordSiteBits(t *testing.T) {
	src := `
	.globl	main
main:
	movq	$6, %rax
	cmpq	$5, %rax
	addq	$1, %rax
	out	%rax
	hlt
`
	m, err := New(mustParse(t, src), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(RunOpts{RecordSiteStatics: true})
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.CrashMsg)
	}
	want := []uint16{64, uint16(asm.NumFlag), 64}
	if len(res.SiteStatics) != int(res.DynSites) || len(res.SiteStatics) != len(want) {
		t.Fatalf("SiteStatics = %v for %d sites, want %d entries", res.SiteStatics, res.DynSites, len(want))
	}
	statics := m.StaticInstrs()
	for i, w := range want {
		if got := DestBits(statics[res.SiteStatics[i]].Dest); got != w {
			t.Errorf("site %d width = %d, want %d", i, got, w)
		}
	}
}

// TestRecordSiteStatics: the per-site static instruction ids index
// StaticInstrs in load order, in execution order, and name each site's
// location — the alignment the prune partitioner and proneness profiles
// depend on.
func TestRecordSiteStatics(t *testing.T) {
	src := `
	.globl	main
main:
	movq	$3, %rcx
	movq	$0, %rax
.Lloop:
	addq	%rcx, %rax
	cmpq	$0, %rcx
	subq	$1, %rcx
	jne	.Lloop
	out	%rax
	hlt
`
	res := run(t, src, RunOpts{RecordSiteStatics: true})
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.CrashMsg)
	}
	if uint64(len(res.SiteStatics)) != res.DynSites {
		t.Fatalf("SiteStatics has %d entries for %d sites", len(res.SiteStatics), res.DynSites)
	}
	p, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	statics := m.StaticInstrs()
	// Execution order: two set-up movs, then three loop iterations of
	// addq/cmpq/subq (indices 2-4 of main).
	wantIdx := []int{0, 1, 2, 3, 4, 2, 3, 4, 2, 3, 4}
	if len(res.SiteStatics) != len(wantIdx) {
		t.Fatalf("SiteStatics = %v, want sites at %v", res.SiteStatics, wantIdx)
	}
	for site, sid := range res.SiteStatics {
		if sid < 0 || int(sid) >= len(statics) {
			t.Fatalf("site %d: static id %d out of range [0,%d)", site, sid, len(statics))
		}
		st := statics[sid]
		if st.Fn != "main" || st.Idx != wantIdx[site] || st.Dest.Kind == asm.DestNone {
			t.Errorf("site %d: static %d = %+v, want main[%d] with a destination", site, sid, st, wantIdx[site])
		}
	}

	// Without the flag the run records nothing: the per-plan hot path must
	// not pay for recording it didn't ask for.
	if plain := run(t, src, RunOpts{}); plain.SiteStatics != nil {
		t.Errorf("SiteStatics recorded without RecordSiteStatics: %v", plain.SiteStatics)
	}
}
