package harness

import (
	"reflect"
	"strings"
	"testing"

	"ferrum/internal/fi"
)

// TestRunSpecEquivalence: RunSpec — the path a fiserve worker runs leased
// campaigns through — reproduces every in-process fig. 10 cell's Result
// exactly, at a different worker count than the experiment used.
func TestRunSpecEquivalence(t *testing.T) {
	opts := testOpts("bfs")
	rows, err := Fig10(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range append([]Technique{Raw}, Techniques...) {
		spec := CampaignSpec{Bench: "bfs", Technique: tech, Level: "asm", Samples: opts.Samples, Seed: opts.Seed}
		got, err := RunSpec(spec, fi.Campaign{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if want := rows[0].Counts[tech]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: RunSpec result differs from the fig10 cell:\n got %+v\nwant %+v", tech, got, want)
		}
	}
}

// TestRunSpecEquivalenceGap: the four-kind Gap experiment (IR and assembly
// levels) renders byte-identically from RunSpec results.
func TestRunSpecEquivalenceGap(t *testing.T) {
	base := Options{Samples: 200, Seed: 5, Benchmarks: []string{"knn"}}
	local, err := Gap(base)
	if err != nil {
		t.Fatal(err)
	}
	var res []fi.Result
	for _, sp := range []CampaignSpec{
		{Technique: Raw, Level: "ir"}, {Technique: IREDDI, Level: "ir"},
		{Technique: Raw, Level: "asm"}, {Technique: IREDDI, Level: "asm"},
	} {
		sp.Bench, sp.Samples, sp.Seed = "knn", base.Samples, base.Seed
		r, err := RunSpec(sp, fi.Campaign{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		res = append(res, r)
	}
	anticipated, measured := fi.Coverage(res[0], res[1]), fi.Coverage(res[2], res[3])
	spec := []GapRow{{Benchmark: "knn", Anticipated: anticipated, Measured: measured, Gap: anticipated - measured}}
	if got, want := RenderGap(spec), RenderGap(local); got != want {
		t.Errorf("RunSpec Gap differs:\n--- local ---\n%s\n--- RunSpec ---\n%s", want, got)
	}
}

// TestRunSpecErrors: specs naming unknown benchmarks, techniques, levels or
// IR-level techniques are rejected with the offending name in the message.
func TestRunSpecErrors(t *testing.T) {
	for _, tc := range []struct {
		spec CampaignSpec
		want string
	}{
		{CampaignSpec{Bench: "nope", Level: "asm", Technique: Raw, Samples: 1}, "unknown benchmark"},
		{CampaignSpec{Bench: "bfs", Level: "asm", Technique: "bogus", Samples: 1}, "unknown technique"},
		{CampaignSpec{Bench: "bfs", Level: "bogus", Technique: Raw, Samples: 1}, "unknown injection level"},
		{CampaignSpec{Bench: "bfs", Level: "ir", Technique: Ferrum, Samples: 1}, "ir-level-eddi"},
	} {
		_, err := RunSpec(tc.spec, fi.Campaign{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunSpec(%+v) error = %v, want %q", tc.spec, err, tc.want)
		}
	}
}
