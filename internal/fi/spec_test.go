package fi

import (
	"reflect"
	"strings"
	"testing"

	"ferrum/internal/compose"
	"ferrum/internal/obs"
)

// TestCampaignCheck walks the run-mode matrix: every incompatible pair is
// refused with its reason, every supported combination passes.
func TestCampaignCheck(t *testing.T) {
	shard := ShardSpec{Index: 1, Count: 2}
	for _, tc := range []struct {
		c    Campaign
		ir   bool
		want string // "" = accepted
	}{
		{Campaign{}, false, ""},
		{Campaign{}, true, ""},
		{Campaign{Prune: PruneFull}, false, ""},
		{Campaign{Compose: ComposeOn, CheckpointEvery: 7}, false, ""},
		{Campaign{CIWidth: 0.1, NoCheckpoint: true}, true, ""},
		{Campaign{Shard: shard, NoCheckpoint: true}, true, ""},
		{Campaign{Prune: PruneDead, CIWidth: 0.1}, false, "no uniform plan prefix"},
		{Campaign{Compose: ComposeOn, Prune: PruneDead}, false, "no per-section plan strata"},
		{Campaign{Compose: ComposeValidate, CIWidth: 0.1}, false, "per-section budgets are fixed up front"},
		{Campaign{Compose: ComposeOn, NoCheckpoint: true}, false, "sections are cut at checkpoint boundaries"},
		{Campaign{Compose: ComposeOn, Shard: shard}, false, "incompatible with compose mode on"},
		{Campaign{Prune: PruneExact, Shard: shard}, false, "incompatible with prune mode exact"},
		{Campaign{CIWidth: 0.1, Shard: shard}, false, "incompatible with CI-width"},
		{Campaign{Shard: ShardSpec{Index: 2, Count: 2}}, false, "out of range"},
		{Campaign{Shard: ShardSpec{Index: -1}}, false, "negative shard spec"},
		{Campaign{Prune: PruneDead}, true, "the analysis is assembly-level"},
		{Campaign{Compose: ComposeOn}, true, "sections are cut at assembly checkpoint boundaries"},
	} {
		check := tc.c.Check
		if tc.ir {
			check = tc.c.CheckIR
		}
		err := check()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%+v (ir=%v) refused: %v", tc.c, tc.ir, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%+v (ir=%v): err = %v, want %q", tc.c, tc.ir, err, tc.want)
		}
	}
}

// TestCampaignMetaFields enumerates fi.Campaign's fields: perturbing a
// result-shaping one must change the derived meta, perturbing any other
// must not. A field missing from the table fails the test, so a new field
// has to be classified before it can drift out of the fingerprint.
func TestCampaignMetaFields(t *testing.T) {
	shaping := map[string]func(*Campaign){
		"Samples":      func(c *Campaign) { c.Samples++ },
		"Seed":         func(c *Campaign) { c.Seed++ },
		"MaxSteps":     func(c *Campaign) { c.MaxSteps = 99 },
		"BitsPerFault": func(c *Campaign) { c.BitsPerFault = 2 },
		"Prune":        func(c *Campaign) { c.Prune = PruneDead },
		"Compose":      func(c *Campaign) { c.Compose = ComposeOn },
		"Shard":        func(c *Campaign) { c.Shard = ShardSpec{Index: 1, Count: 2} },
		"CIWidth":      func(c *Campaign) { c.CIWidth = 0.1 },
	}
	inert := map[string]func(*Campaign){
		"Workers":         func(c *Campaign) { c.Workers = 3 },
		"SectionCache":    func(c *Campaign) { c.SectionCache = compose.NewCache() },
		"Progress":        func(c *Campaign) { c.Progress = func(int) {} },
		"NoCheckpoint":    func(c *Campaign) { c.NoCheckpoint = true },
		"CheckpointEvery": func(c *Campaign) { c.CheckpointEvery = 100 },
		"Cancel":          func(c *Campaign) { c.Cancel = make(chan struct{}) },
		"Journal":         func(c *Campaign) { c.Journal = &Journal{} },
		"Key":             func(c *Campaign) { c.Key = "k" },
		"Prior":           func(c *Campaign) { c.Prior = &CellState{} },
		"Obs":             func(c *Campaign) { c.Obs = obs.New().Cell("x", 0) },
	}
	base := Campaign{Samples: 10, Seed: 1}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Campaign{})) {
		c := base
		if perturb, ok := shaping[f.Name]; ok {
			perturb(&c)
			if reflect.DeepEqual(c.Meta(), base.Meta()) {
				t.Errorf("result-shaping field %s does not reach the meta", f.Name)
			}
		} else if perturb, ok := inert[f.Name]; ok {
			perturb(&c)
			if !reflect.DeepEqual(c.Meta(), base.Meta()) {
				t.Errorf("field %s cannot change results but changes the meta", f.Name)
			}
		} else {
			t.Errorf("fi.Campaign field %s is not classified as result-shaping or not", f.Name)
		}
	}
	// Under compose the checkpoint spacing cuts the sections the plans are
	// stratified over, so it joins the fingerprint.
	on := Campaign{Samples: 10, Seed: 1, Compose: ComposeOn}
	k := on
	k.CheckpointEvery = 100
	if k.Meta().CheckpointEvery != 100 || on.Meta().CheckpointEvery != 0 {
		t.Errorf("composed meta does not record K: %+v vs %+v", k.Meta(), on.Meta())
	}
}

// TestJournalMetaCheckEveryField: Check compares every meta field and names
// a mismatch by its JSON name.
func TestJournalMetaCheckEveryField(t *testing.T) {
	typ := reflect.TypeOf(JournalMeta{})
	for i := 0; i < typ.NumField(); i++ {
		var a, b JournalMeta
		v := reflect.ValueOf(&b).Elem().Field(i)
		switch v.Kind() {
		case reflect.String:
			v.SetString("x")
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(3)
		case reflect.Uint64:
			v.SetUint(3)
		case reflect.Float64:
			v.SetFloat(0.5)
		case reflect.Slice:
			v.Set(reflect.ValueOf([]string{"bfs", "knn"}))
		default:
			t.Fatalf("field %s: unhandled kind %v", typ.Field(i).Name, v.Kind())
		}
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		err := a.Check(b)
		if err == nil || !strings.Contains(err.Error(), "invocation "+name+"=") {
			t.Errorf("field %s: Check = %v, want a mismatch naming %q", typ.Field(i).Name, err, name)
		}
	}
	lists := JournalMeta{Benchmarks: []string{"bfs", "knn"}}
	if err := (JournalMeta{}).Check(lists); err == nil || !strings.Contains(err.Error(), "invocation benchmarks=bfs,knn") {
		t.Errorf("list mismatch: %v", err)
	}
	if err := (JournalMeta{Benchmarks: []string{}}).Check(JournalMeta{}); err != nil {
		t.Errorf("empty and nil benchmark lists differ: %v", err)
	}
}
