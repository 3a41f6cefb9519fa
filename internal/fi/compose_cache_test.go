package fi

import (
	"reflect"
	"strconv"
	"testing"

	"ferrum/internal/backend"
	"ferrum/internal/compose"
	"ferrum/internal/ir"
)

// twoKernelSrc is a two-phase program for the section-reuse test: main runs
// kernelA (writes the scratch array) then kernelB (reduces it). The %5 in
// kernelB's xor is the "edited line" — twoKernelEdited differs only there,
// preserving instruction counts, control flow and every PC, so the sections
// covering kernelA's execution keep their content fingerprints while the
// kernelB sections (and the whole-program digest) change.
const twoKernelSrc = `
func @kernelA(%base, %n) {
entry:
  %i = alloca 1
  store 0, %i
  br loop
loop:
  %iv = load %i
  %c = icmp slt %iv, %n
  br %c, body, done
body:
  %p = gep %base, %iv
  %v = load %p
  %v2 = mul %v, 3
  %v3 = add %v2, 11
  store %v3, %p
  %i2 = add %iv, 1
  store %i2, %i
  br loop
done:
  %z = load %base
  ret %z
}
func @kernelB(%base, %n) {
entry:
  %i = alloca 1
  %acc = alloca 1
  store 0, %i
  store 0, %acc
  br loop
loop:
  %iv = load %i
  %c = icmp slt %iv, %n
  br %c, body, done
body:
  %p = gep %base, %iv
  %v = load %p
  %v2 = xor %v, 5
  %a = load %acc
  %a2 = add %a, %v2
  store %a2, %acc
  %i2 = add %iv, 1
  store %i2, %i
  br loop
done:
  %r = load %acc
  out %r
  ret %r
}
func @main(%n, %base) {
entry:
  %a = call @kernelA(%base, %n)
  out %a
  %b = call @kernelB(%base, %n)
  out %b
  ret %b
}
`

func twoKernelTarget(t *testing.T, src string) AsmTarget {
	t.Helper()
	mod, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := backend.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	return AsmTarget{Prog: prog, MemSize: memSize, Args: []uint64{8, 8192}, Setup: loadArray}
}

// TestComposeCacheReuseOnEdit is the headline re-injection property: after
// editing one kernel of a two-kernel program, a composed campaign against a
// warm section cache re-executes only the sections whose fingerprint the
// edit reached, serves the untouched sections' local-class plans from
// cache, and still produces results byte-identical to a cold campaign
// against the edited program.
func TestComposeCacheReuseOnEdit(t *testing.T) {
	tgtA := twoKernelTarget(t, twoKernelSrc)
	edited := "%v2 = xor %v, 13"
	tgtB := twoKernelTarget(t, replaceOnce(t, twoKernelSrc, "%v2 = xor %v, 5", edited))

	base := Campaign{Samples: 200, Seed: 11, MaxSteps: equivSteps, Workers: 4,
		Compose: ComposeOn, every: 16}

	cache := compose.NewCache()
	c := base
	c.SectionCache = cache
	resA, err := RunAsmCampaign(tgtA, c)
	if err != nil {
		t.Fatal(err)
	}

	warm := base
	warm.SectionCache = cache.Clone() // shared tables, fresh counters
	resB, err := RunAsmCampaign(tgtB, warm)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.SectionCache.CacheStats()

	// Correctness first: the warm-cache result must be byte-identical to a
	// cold campaign against the edited program.
	cold := base
	want, err := RunAsmCampaign(tgtB, cold)
	if err != nil {
		t.Fatal(err)
	}
	if resB.Counts != want.Counts {
		t.Errorf("warm counts %v != cold %v", resB.Counts, want.Counts)
	}
	if !reflect.DeepEqual(resB.Composed, want.Composed) {
		t.Errorf("warm composed summary differs from cold\ngot  %+v\nwant %+v",
			resB.Composed, want.Composed)
	}

	// The edit preserved instruction counts and control flow, so the section
	// partition is identical; only the fingerprints of sections reaching
	// kernelB (plus boundary states downstream of it) may change.
	if resA.DynSites != resB.DynSites {
		t.Fatalf("edit changed DynSites %d -> %d", resA.DynSites, resB.DynSites)
	}
	rowsA, rowsB := resA.Composed.Rows, resB.Composed.Rows
	if len(rowsA) != len(rowsB) {
		t.Fatalf("section count changed %d -> %d", len(rowsA), len(rowsB))
	}
	sameSecs, changedSecs, samePlans, sameFallbacks := 0, 0, 0, 0
	for i := range rowsA {
		if rowsA[i].Start != rowsB[i].Start || rowsA[i].End != rowsB[i].End {
			t.Fatalf("section %d range changed: %+v vs %+v", i, rowsA[i], rowsB[i])
		}
		if rowsA[i].Fingerprint == rowsB[i].Fingerprint {
			sameSecs++
			samePlans += rowsB[i].Plans
			sameFallbacks += rowsB[i].Fallbacks
		} else {
			changedSecs++
		}
	}
	if changedSecs == 0 {
		t.Fatal("edit changed no section fingerprint — the test edits nothing")
	}
	if sameSecs == 0 {
		t.Fatal("edit changed every section fingerprint — no reuse possible")
	}

	// The untouched sections' local-class plans must be served from cache.
	// Their fallback (and dead-tolerated) plans are ClassGlobal — measured
	// under the old whole-program digest — and legitimately re-run.
	minServed := samePlans - sameFallbacks
	if st.PlansServed < minServed/2 || st.PlansServed == 0 {
		t.Errorf("served %d plans from cache; %d sections unchanged carrying %d plans (%d fallbacks)",
			st.PlansServed, sameSecs, samePlans, sameFallbacks)
	}
	executed := int(resB.Checkpoint.Restores + resB.Checkpoint.ColdStarts)
	if executed+st.PlansServed != base.Samples {
		t.Errorf("executed %d + served %d != samples %d", executed, st.PlansServed, base.Samples)
	}
	if executed >= base.Samples {
		t.Errorf("warm run re-executed every plan")
	}
	t.Logf("edit reuse: %d/%d sections unchanged, %d/%d plans served, %d re-executed",
		sameSecs, len(rowsA), st.PlansServed, base.Samples, executed)
}

// TestComposeWarmPassKeepsTables: a warm pass served whole under the
// current whole-program digest stores no section table again, so the cache
// holds the very tables the cold pass stored. After an edit the untouched
// sections are served under a stale digest, and their tables are stored
// afresh under the new one.
func TestComposeWarmPassKeepsTables(t *testing.T) {
	tgtA := twoKernelTarget(t, twoKernelSrc)
	tgtB := twoKernelTarget(t, replaceOnce(t, twoKernelSrc, "%v2 = xor %v, 5", "%v2 = xor %v, 13"))
	cache := compose.NewCache()
	c := Campaign{Samples: 200, Seed: 11, MaxSteps: equivSteps, Workers: 4,
		Compose: ComposeOn, every: 16, SectionCache: cache}
	run := func(tgt AsmTarget) (Result, map[string]*compose.Table) {
		res, err := RunAsmCampaign(tgt, c)
		if err != nil {
			t.Fatal(err)
		}
		tables := map[string]*compose.Table{}
		for _, row := range res.Composed.Rows {
			key, err := strconv.ParseUint(row.Fingerprint, 16, 64)
			if err != nil {
				t.Fatal(err)
			}
			if tb := cache.Get(key); tb != nil {
				tables[row.Fingerprint] = tb
			}
		}
		return res, tables
	}
	cold, before := run(tgtA)
	n := cache.Len()
	warm, after := run(tgtA)
	if warm.Counts != cold.Counts || !reflect.DeepEqual(warm.Composed, cold.Composed) {
		t.Fatalf("warm result differs from the cold pass: %v %+v, cold %v %+v", warm.Counts, warm.Composed, cold.Counts, cold.Composed)
	}
	if cache.Len() != n || len(after) != len(before) || len(before) == 0 {
		t.Fatalf("warm pass left %d tables (%d of its sections), cold %d (%d)", cache.Len(), len(after), n, len(before))
	}
	for fp, tb := range before {
		if after[fp] != tb {
			t.Errorf("section %s: warm pass stored its table again", fp)
		}
	}
	_, edited := run(tgtB)
	kept := 0
	for fp, tb := range edited {
		old := before[fp]
		if old == nil {
			continue
		}
		kept++
		if tb == old || tb.GlobalDigest == old.GlobalDigest {
			t.Errorf("section %s: served under a stale digest, but its table was not stored afresh", fp)
		}
	}
	if kept == 0 {
		t.Fatal("the edit left no section untouched")
	}
}

func replaceOnce(t *testing.T, s, old, new string) string {
	t.Helper()
	i := indexOf(s, old)
	if i < 0 {
		t.Fatalf("pattern %q not found", old)
	}
	out := s[:i] + new + s[i+len(old):]
	if indexOf(out[i+len(new):], old) >= 0 {
		t.Fatalf("pattern %q not unique", old)
	}
	return out
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// pinnedFingerprints are the section fingerprints of the campaign in
// TestComposeFingerprintsPinned. Fingerprints are journaled in every
// composed cell record and fistat's compose diff compares them across
// journals, so a change to how sections are keyed must update this list
// deliberately.
var pinnedFingerprints = []string{
	"4dbaedefee1c389b", "13efa335be9549b0", "5e0fff6f95f99479",
	"616456242c256dd8", "a51ef9911463547b", "9ea8583cf0a5cc13",
	"b36d6c1f6c2eb30c", "5712ab760713700c", "693499937c5d19f2",
}

// TestComposeFingerprintsPinned runs one fixed composed campaign (bfs/raw,
// pinned K, seed and step budget) and compares its section fingerprints
// and outcome counts with recorded values.
func TestComposeFingerprintsPinned(t *testing.T) {
	tgt := equivAsmTarget(t, equivBench(t, "bfs"), false)
	res, err := RunAsmCampaign(tgt, Campaign{Samples: 120, Seed: 4242, MaxSteps: 1 << 20,
		Workers: 2, Compose: ComposeOn, every: 512})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range res.Composed.Rows {
		got = append(got, row.Fingerprint)
	}
	if !reflect.DeepEqual(got, pinnedFingerprints) {
		t.Errorf("section fingerprints changed\ngot  %q\nwant %q", got, pinnedFingerprints)
	}
	// The counts pin the boundary classification, which the dead sets at
	// each section exit decide.
	if want := [numOutcomes]int{40, 42, 0, 35, 3}; res.Counts != want || res.Composed.Fallbacks != 51 {
		t.Errorf("counts %v with %d fallbacks, want %v with 51", res.Counts, res.Composed.Fallbacks, want)
	}
}
