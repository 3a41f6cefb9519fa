package fi

import (
	"reflect"
	"strings"
	"testing"

	"ferrum/internal/compose"
	"ferrum/internal/obs"
)

// TestCampaignCheck walks the run-mode rules: a campaign takes at most one
// plan stage (prune, compose or shard), and a refused pair names both;
// compose needs checkpoints; IR campaigns refuse the assembly-only modes.
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
		{Campaign{Prune: PruneExact, NoCheckpoint: true}, false, ""},
		{Campaign{Compose: ComposeOn, every: 7}, false, ""},
		{Campaign{Compose: ComposeValidate}, false, ""},
		{Campaign{Shard: shard}, false, ""},
		{Campaign{Shard: shard, NoCheckpoint: true}, true, ""},
		{Campaign{NoCheckpoint: true}, true, ""},
		{Campaign{Prune: PruneExact, Compose: ComposeOn}, false, "prune mode exact is incompatible with compose mode on"},
		{Campaign{Prune: PruneFull, Compose: ComposeValidate}, false, "prune mode full is incompatible with compose mode validate"},
		{Campaign{Prune: PruneExact, Shard: shard}, false, "prune mode exact is incompatible with shard 1/2"},
		{Campaign{Compose: ComposeOn, Shard: shard}, false, "compose mode on is incompatible with shard 1/2"},
		{Campaign{Prune: PruneFull, Compose: ComposeOn, Shard: shard}, false, "prune mode full is incompatible with compose mode on"},
		{Campaign{Compose: ComposeOn, NoCheckpoint: true}, false, "sections are cut at checkpoint boundaries"},
		{Campaign{Shard: ShardSpec{Index: 2, Count: 2}}, false, "out of range"},
		{Campaign{Shard: ShardSpec{Index: -1}}, false, "negative shard spec"},
		{Campaign{Prune: PruneExact}, true, "the analysis is assembly-level"},
		{Campaign{Compose: ComposeOn}, true, "sections are cut at assembly checkpoint boundaries"},
		{Campaign{BitsPerFault: 1}, true, ""},
		{Campaign{BitsPerFault: 3}, false, ""},
		{Campaign{BitsPerFault: 2}, true, "the IR injector flips a single bit"},
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
// Test-only fields are the third class: they may shape results (a forced K
// cuts compose's sections), but no caller outside this package can set
// them, so no journal ever records a campaign run with them.
func TestCampaignMetaFields(t *testing.T) {
	shaping := map[string]func(*Campaign){
		"Samples":      func(c *Campaign) { c.Samples++ },
		"Seed":         func(c *Campaign) { c.Seed++ },
		"MaxSteps":     func(c *Campaign) { c.MaxSteps = 99 },
		"BitsPerFault": func(c *Campaign) { c.BitsPerFault = 2 },
		"Prune":        func(c *Campaign) { c.Prune = PruneExact },
		"Compose":      func(c *Campaign) { c.Compose = ComposeOn },
		"Shard":        func(c *Campaign) { c.Shard = ShardSpec{Index: 1, Count: 2} },
	}
	inert := map[string]func(*Campaign){
		"Workers":      func(c *Campaign) { c.Workers = 3 },
		"SectionCache": func(c *Campaign) { c.SectionCache = compose.NewCache() },
		"Progress":     func(c *Campaign) { c.Progress = func(int) {} },
		"NoCheckpoint": func(c *Campaign) { c.NoCheckpoint = true },
		"Cancel":       func(c *Campaign) { c.Cancel = make(chan struct{}) },
		"Journal":      func(c *Campaign) { c.Journal = &Journal{} },
		"Key":          func(c *Campaign) { c.Key = "k" },
		"Prior":        func(c *Campaign) { c.Prior = &CellState{} },
		"Obs":          func(c *Campaign) { c.Obs = obs.New().Cell("x", 0) },
	}
	testOnly := map[string]func(*Campaign){
		"every": func(c *Campaign) { c.every = 100 },
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
		} else if perturb, ok := testOnly[f.Name]; ok {
			if f.IsExported() {
				t.Errorf("test-only field %s is exported", f.Name)
			}
			c.Compose = ComposeOn
			composed := c
			perturb(&c)
			if !reflect.DeepEqual(c.Meta(), composed.Meta()) {
				t.Errorf("test-only field %s reaches the meta", f.Name)
			}
		} else {
			t.Errorf("fi.Campaign field %s is not classified as result-shaping or not", f.Name)
		}
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
