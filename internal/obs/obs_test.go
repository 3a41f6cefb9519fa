package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Add(3)
	r.Counter("a").Add(2) // same name -> same counter
	if got := r.Counter("a").Load(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("g")
	g.Set(7)
	g.SetMax(3) // lower: ignored
	g.SetMax(9)
	if got := g.Load(); got != 9 {
		t.Errorf("gauge = %d, want 9", got)
	}
	// Rebind carries a standalone counter's count into the registry once;
	// a second Rebind, or one on a nil registry, changes nothing.
	own := &Counter{}
	own.Add(4)
	(*Registry)(nil).Rebind(&own, "a")
	r.Rebind(&own, "a")
	r.Rebind(&own, "a")
	own.Add(1)
	if got := r.Counter("a").Load(); got != 10 || own != r.Counter("a") {
		t.Errorf("rebound counter = %d, want 10 in the registry's counter", got)
	}
}

func TestNilSafety(t *testing.T) {
	// Every disabled handle must be inert, not panic: this is the
	// structural off-path guarantee instrumented call sites rely on.
	var (
		o  *Observer
		r  *Registry
		tr *Tracer
		cx *Ctx
	)
	r.Counter("x").Add(1)
	r.Gauge("x").Set(1)
	r.Histogram("x", []float64{1}).Observe(2)
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	sp := tr.Start("phase", "cell", 1)
	sp.SetAttr("k", "v")
	sp.End()
	if tr.Spans() != nil {
		t.Error("nil tracer recorded spans")
	}
	cx = o.Cell("c", 2)
	if cx != nil {
		t.Error("nil observer returned non-nil ctx")
	}
	cx.Span("p").End()
	cx.Counter("n").Add(1)
	cx.Histogram("h", nil).Observe(1)
	if cx.CellName() != "" || cx.Lane() != 0 {
		t.Error("nil ctx identity not zero")
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{10, 100, 1000})
	for _, v := range []float64{1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot().Hists["lat"]
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if want := []int64{2, 1, 1, 1}; len(s.Counts) != 4 ||
		s.Counts[0] != want[0] || s.Counts[1] != want[1] ||
		s.Counts[2] != want[2] || s.Counts[3] != want[3] {
		t.Errorf("bucket counts = %v, want %v", s.Counts, want)
	}
	if s.Sum != 5556 {
		t.Errorf("sum = %v, want 5556", s.Sum)
	}
	if q := s.Quantile(0.5); q != 100 {
		t.Errorf("p50 = %v, want 100 (upper bound of median bucket)", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram([]float64{50})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if n := h.n.Load(); n != 8000 {
		t.Errorf("count = %d, want 8000", n)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("n").Add(2)
	b.Counter("n").Add(3)
	b.Counter("only-b").Add(1)
	a.Gauge("g").Set(4)
	b.Gauge("g").Set(9)
	a.Histogram("h", []float64{10}).Observe(1)
	b.Histogram("h", []float64{10}).Observe(100)
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Counters["n"] != 5 || m.Counters["only-b"] != 1 {
		t.Errorf("merged counters = %v", m.Counters)
	}
	if m.Gauges["g"] != 9 {
		t.Errorf("merged gauge = %d, want max 9", m.Gauges["g"])
	}
	h := m.Hists["h"]
	if h.Count != 2 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Errorf("merged hist = %+v", h)
	}
}

func TestTracerSpans(t *testing.T) {
	tr := NewTracer()
	var streamed []Span
	tr.OnSpan(func(s Span) { streamed = append(streamed, s) })
	sp := tr.Start("golden", "bfs/ferrum", 2)
	sp.SetAttr("dyn_insts", 123)
	sp.End()
	spans := tr.Spans()
	if len(spans) != 1 || len(streamed) != 1 {
		t.Fatalf("spans = %d recorded, %d streamed; want 1, 1", len(spans), len(streamed))
	}
	s := spans[0]
	if s.Name != "golden" || s.Cell != "bfs/ferrum" || s.Lane != 2 {
		t.Errorf("span identity = %+v", s)
	}
	if s.Dur < 0 {
		t.Errorf("span dur = %v", s.Dur)
	}
	if s.Attrs["dyn_insts"] != 123 {
		t.Errorf("span attrs = %v", s.Attrs)
	}
}

func TestNDJSONStream(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer()
	sink := NewNDJSON(&buf, time.Time{})
	sink.Attach(tr)
	sink.Meta("test", []string{"-x"})
	tr.Start("build", "bfs/raw", 1).End()
	reg := NewRegistry()
	reg.Counter(MInjections).Add(42)
	sink.Metrics(reg.Snapshot())
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	var types []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		typ, _ := rec["type"].(string)
		types = append(types, typ)
		switch typ {
		case "span":
			if rec["name"] != "build" || rec["cell"] != "bfs/raw" {
				t.Errorf("span record = %v", rec)
			}
		case "metrics":
			counters := rec["counters"].(map[string]any)
			if counters[MInjections].(float64) != 42 {
				t.Errorf("metrics record = %v", rec)
			}
		}
	}
	if strings.Join(types, ",") != "meta,span,metrics" {
		t.Errorf("record types = %v", types)
	}
}

func TestWriteTrace(t *testing.T) {
	epoch := time.Now()
	spans := []Span{
		{Name: "cell", Cell: "bfs/ferrum", Lane: 1, Start: epoch.Add(time.Millisecond), Dur: 2 * time.Millisecond},
		{Name: "golden", Cell: "bfs/ferrum", Lane: 1, Start: epoch.Add(time.Millisecond), Dur: time.Millisecond},
		{Name: "render", Lane: 0, Start: epoch.Add(4 * time.Millisecond), Dur: 0},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, spans, epoch); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	var threadNames, slices int
	laneSeen := map[float64]bool{}
	for _, ev := range tf.TraceEvents {
		switch ev["ph"] {
		case "M":
			if ev["name"] == "thread_name" {
				threadNames++
			}
		case "X":
			slices++
			laneSeen[ev["tid"].(float64)] = true
			if ev["dur"].(float64) < 1 {
				t.Errorf("slice with sub-µs dur: %v", ev)
			}
			// The cell span is named after its cell for the timeline.
			if ev["cat"] == "cell" && ev["name"] != "bfs/ferrum" {
				t.Errorf("cell slice name = %v", ev["name"])
			}
		}
	}
	if threadNames != 2 { // lane 0 (main) and lane 1
		t.Errorf("thread_name metadata = %d, want 2", threadNames)
	}
	if slices != 3 || !laneSeen[0] || !laneSeen[1] {
		t.Errorf("slices = %d on lanes %v", slices, laneSeen)
	}
}

func TestRenderSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter(MCells).Add(4)
	r.Counter(MInjections).Add(240)
	r.Counter(MCellWallUS).Add(3_400_000)
	r.Counter(MBuildMisses).Add(4)
	r.Counter(MBuildHits).Add(2)
	r.Counter(MGoldenMisses).Add(4)
	r.Counter(MGoldenHits).Add(1)
	r.Counter(MCkptCampaigns).Add(4)
	r.Counter(MCkptSnapshots).Add(57)
	r.Counter(MCkptBytes).Add(2048)
	r.Counter(MCampaigns).Add(4)
	r.Counter(MPlans).Add(240)
	r.Counter(MOutcomePrefix + "benign").Add(200)
	r.Counter(MOutcomePrefix + "sdc").Add(40)
	r.Counter(MComposedCampaigns).Add(2)
	r.Counter(MComposedSections).Add(26)
	r.Counter(MComposedPlans).Add(90)
	r.Counter(MComposedFallbacks).Add(30)
	r.Counter(MComposeSectionHits).Add(13)
	r.Counter(MComposeSectionMisses).Add(13)
	r.Counter(MComposePlansServed).Add(35)
	r.Counter(MWidthFallbacks).Add(3)
	var buf bytes.Buffer
	spans := []Span{
		{Name: "cell", Cell: "bfs/ferrum", Dur: 2 * time.Second},
		{Name: "cell", Cell: "bfs/raw", Dur: time.Second},
	}
	RenderSummary(&buf, r.Snapshot(), 1200*time.Millisecond, spans)
	got := buf.String()
	for _, needle := range []string{
		"suite: 4 cells, 240 injections, 1.2s wall (3.4s summed cell time)",
		"builds: 4 unique, 2 cache hits", "goldens: 4 unique, 1 cache hits",
		"checkpointing: 4 campaigns, 57 snapshots (2 KiB)",
		"outcomes: 240 plans across 4 campaigns: 200 benign, 40 sdc",
		"compose: 2 campaigns, 26 sections; 90 plans boundary-classified, 30 fell back end-to-end",
		"compose cache: 13 section tables reused, 13 measured fresh, 35 plans served without execution",
		"site widths: 3 sites fell back to full-width faults",
		"slowest cells: bfs/ferrum 2s, bfs/raw 1s",
	} {
		if !strings.Contains(got, needle) {
			t.Errorf("summary missing %q:\n%s", needle, got)
		}
	}
	// A run with no checkpointing, no campaigns, no compose prints none of
	// their lines.
	buf.Reset()
	RenderSummary(&buf, NewRegistry().Snapshot(), 0, nil)
	for _, spurious := range []string{"checkpointing", "outcomes", "compose", "site widths"} {
		if strings.Contains(buf.String(), spurious) {
			t.Errorf("empty-run summary has spurious %q line:\n%s", spurious, buf.String())
		}
	}
}
