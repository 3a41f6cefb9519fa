package harness

import (
	"fmt"
	"testing"

	"ferrum/internal/rodinia"
)

// TestBuildIndependentOfInput pins the invariant BuildCache's build key
// rests on: a build depends on (benchmark, technique, optimize) and not on
// the input. For every benchmark, technique and optimisation level, builds
// from instances at two seeds and two scales print the same program, the
// same protected IR and the same pass reports.
func TestBuildIndependentOfInput(t *testing.T) {
	inputs := []struct {
		scale int
		seed  int64
	}{{1, 7}, {1, 424242}, {2, 7}}
	for _, b := range rodinia.All() {
		var insts []*rodinia.Instance
		for _, in := range inputs {
			inst, err := b.Instantiate(in.scale, in.seed)
			if err != nil {
				t.Fatal(err)
			}
			insts = append(insts, inst)
		}
		for _, tech := range append([]Technique{Raw}, Techniques...) {
			for _, optimize := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/optimize=%v", b.Name, tech, optimize)
				var want string
				for i, inst := range insts {
					build, err := BuildTechniqueOpts(inst.Mod, tech, BuildOptions{Optimize: optimize})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got := buildText(build)
					if i == 0 {
						want = got
					} else if got != want {
						t.Errorf("%s: the build at scale %d seed %d differs from scale %d seed %d",
							name, inputs[i].scale, inputs[i].seed, inputs[0].scale, inputs[0].seed)
					}
				}
				if tech == IREDDI && want == "" {
					t.Fatalf("%s: no protected IR to compare", name)
				}
			}
		}
	}
}

// buildText renders everything a Build derives from its module: the
// program, the protected IR and the pass reports without their timings.
func buildText(b *Build) string {
	s := b.Prog.String()
	if b.ProtectedIR != nil {
		s += "\n--- protected IR\n" + b.ProtectedIR.String()
	}
	if b.FerrumStats != nil {
		r := *b.FerrumStats
		r.Duration = 0
		s += fmt.Sprintf("\n--- ferrum %+v", r)
	}
	if b.HybridStats != nil {
		s += fmt.Sprintf("\n--- hybrid %+v", *b.HybridStats)
	}
	return s
}

// TestVariationBuildsOncePerProgram: Variation's shifted seeds share one
// build and one decoded program per (benchmark, technique), and still run
// one golden per input.
func TestVariationBuildsOncePerProgram(t *testing.T) {
	cache := NewBuildCache()
	opts := Options{Seed: 9, Benchmarks: []string{"bfs", "lud"}, Cache: cache}
	if _, err := Variation(opts, 5); err != nil {
		t.Fatal(err)
	}
	techs := 1 + len(Techniques)
	st := cache.Stats()
	if want := 2 * techs; st.BuildMisses != want {
		t.Errorf("Variation over 2 benchmarks × 5 seeds: %d build misses, want %d", st.BuildMisses, want)
	}
	if want := 2 * 5 * techs; st.GoldenMisses != want {
		t.Errorf("Variation over 2 benchmarks × 5 seeds: %d golden misses, want %d", st.GoldenMisses, want)
	}
	decoded := 0
	for _, e := range cache.builds {
		if e.dec != nil {
			decoded++
		}
	}
	if decoded != st.BuildMisses {
		t.Errorf("decoded programs = %d, want one per build (%d)", decoded, st.BuildMisses)
	}
}
