package harness

import (
	"reflect"
	"testing"
	"time"

	"ferrum/internal/compose"
	"ferrum/internal/fi"
	"ferrum/internal/obs"
)

// TestOptionsMetaFields enumerates harness.Options' fields: perturbing a
// result-shaping one must change the journal meta, perturbing any other
// must not. A field missing from the table fails the test, so a new field
// has to be classified before it can drift out of the fingerprint.
func TestOptionsMetaFields(t *testing.T) {
	shaping := map[string]func(*Options){
		"Samples":    func(o *Options) { o.Samples++ },
		"Seed":       func(o *Options) { o.Seed++ },
		"Scale":      func(o *Options) { o.Scale = 2 },
		"MemSize":    func(o *Options) { o.MemSize = 2 << 20 },
		"Benchmarks": func(o *Options) { o.Benchmarks = []string{"bfs"} },
		"Optimize":   func(o *Options) { o.Optimize = true },
		"CIWidth":    func(o *Options) { o.CIWidth = 0.1 },
		"Prune":      func(o *Options) { o.Prune = fi.PruneExact },
		"Compose":    func(o *Options) { o.Compose = fi.ComposeOn },
	}
	inert := map[string]func(*Options){
		"Workers":         func(o *Options) { o.Workers = 3 },
		"CellWorkers":     func(o *Options) { o.CellWorkers = 3 },
		"Cache":           func(o *Options) { o.Cache = NewBuildCache() },
		"Progress":        func(o *Options) { o.Progress = func(CellEvent) {} },
		"NoCheckpoint":    func(o *Options) { o.NoCheckpoint = true },
		"CheckpointEvery": func(o *Options) { o.CheckpointEvery = 100 },
		"CellTimeout":     func(o *Options) { o.CellTimeout = time.Second },
		"MaxRetries":      func(o *Options) { o.MaxRetries = 2 },
		"RetryBackoff":    func(o *Options) { o.RetryBackoff = time.Second },
		"SectionCache":    func(o *Options) { o.SectionCache = compose.NewCache() },
		"Journal":         func(o *Options) { o.Journal = &fi.Journal{} },
		"Resume":          func(o *Options) { o.Resume = &fi.JournalState{} },
		"Obs":             func(o *Options) { o.Obs = obs.New() },
	}
	base := Options{Samples: 10, Seed: 1, Scale: 1}
	meta := func(o Options) fi.JournalMeta { return o.Meta("reprod", "fig10") }
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Options{})) {
		o := base
		if perturb, ok := shaping[f.Name]; ok {
			perturb(&o)
			if reflect.DeepEqual(meta(o), meta(base)) {
				t.Errorf("result-shaping field %s does not reach the meta", f.Name)
			}
		} else if perturb, ok := inert[f.Name]; ok {
			perturb(&o)
			if !reflect.DeepEqual(meta(o), meta(base)) {
				t.Errorf("field %s cannot change results but changes the meta", f.Name)
			}
		} else {
			t.Errorf("harness.Options field %s is not classified as result-shaping or not", f.Name)
		}
	}
	// Under compose the checkpoint spacing cuts the sections, so it joins
	// the fingerprint.
	on := base
	on.Compose = fi.ComposeOn
	k := on
	k.CheckpointEvery = 100
	if reflect.DeepEqual(meta(k), meta(on)) {
		t.Error("composed options' meta ignores CheckpointEvery")
	}
	// The meta fingerprints exactly the template the scheduler's cells run.
	opts := k.withDefaults()
	cell := newScheduler("fig10", opts).campaign(&cellCtx{key: "fig10/bfs/raw"})
	if got, want := cell.Meta(), opts.Campaign().Meta(); !reflect.DeepEqual(got, want) {
		t.Errorf("cell campaign meta %+v, template meta %+v", got, want)
	}
}
