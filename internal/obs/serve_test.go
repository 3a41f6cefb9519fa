package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSanitizeMetricName: the registry's dotted namespace must land inside
// the Prometheus data model [a-zA-Z_:][a-zA-Z0-9_:]*.
func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"sched.retries":                "sched_retries",
		"fi.detect_latency.cycles.sdc": "fi_detect_latency_cycles_sdc",
		"machine.fusion.vpxor+vptest":  "machine_fusion_vpxor_vptest",
		"9lives":                       "_9lives",
		"already_fine:with_colon":      "already_fine:with_colon",
		"spaces and-dashes":            "spaces_and_dashes",
		"":                             "",
	}
	for in, want := range cases {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheusCumulative: histogram buckets must be cumulative in le
// order and the +Inf bucket must equal _count — the two invariants every
// Prometheus consumer assumes.
func TestWritePrometheusCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fi.detect_latency.cycles.detected", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 100} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := []string{
		`fi_detect_latency_cycles_detected_bucket{le="1"} 1`,
		`fi_detect_latency_cycles_detected_bucket{le="2"} 3`,
		`fi_detect_latency_cycles_detected_bucket{le="4"} 4`,
		`fi_detect_latency_cycles_detected_bucket{le="8"} 4`,
		`fi_detect_latency_cycles_detected_bucket{le="+Inf"} 5`,
		`fi_detect_latency_cycles_detected_count 5`,
	}
	for _, line := range want {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
	if !strings.Contains(out, "# TYPE fi_detect_latency_cycles_detected histogram\n") {
		t.Errorf("exposition missing TYPE line:\n%s", out)
	}
}

// TestWritePrometheusDeterministic: equal snapshots render byte-identically
// (sorted by name), so scrapes can be diffed.
func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.two").Add(2)
	r.Counter("a.one").Add(1)
	r.Gauge("z.g").Set(9)
	r.Histogram("m.h", []float64{1, 2}).Observe(1.5)
	var b1, b2 strings.Builder
	if err := WritePrometheus(&b1, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b2, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Errorf("two renders of the same registry differ:\n%s\n---\n%s", b1.String(), b2.String())
	}
	// Counters render in sorted order.
	if strings.Index(b1.String(), "a_one") > strings.Index(b1.String(), "b_two") {
		t.Errorf("counters not sorted:\n%s", b1.String())
	}
}

// TestPrometheusRoundTrip: Parse(Write(snapshot)) reconstructs the snapshot
// under sanitised names — the property fistat's -reconcile mode depends on.
func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("fi.plans").Add(123)
	r.Counter("sched.retries").Add(4)
	r.Gauge("sched.workers").Set(8)
	h := r.Histogram("fi.detect_latency.insts.sdc", []float64{1, 2, 4, 8, 16})
	for _, v := range []float64{1, 3, 3, 7, 40, 40, 40} {
		h.Observe(v)
	}
	snap := r.Snapshot()

	var b strings.Builder
	if err := WritePrometheus(&b, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParsePrometheus: %v\ninput:\n%s", err, b.String())
	}
	if got.Counters["fi_plans"] != 123 || got.Counters["sched_retries"] != 4 {
		t.Errorf("counters = %v", got.Counters)
	}
	if got.Gauges["sched_workers"] != 8 {
		t.Errorf("gauges = %v", got.Gauges)
	}
	gh, ok := got.Hists["fi_detect_latency_insts_sdc"]
	if !ok {
		t.Fatalf("histogram missing from parse-back: %v", got.Hists)
	}
	wh := snap.Hists["fi.detect_latency.insts.sdc"]
	if !reflect.DeepEqual(gh.Bounds, wh.Bounds) || !reflect.DeepEqual(gh.Counts, wh.Counts) {
		t.Errorf("histogram buckets: got %+v, want %+v", gh, wh)
	}
	if gh.Sum != wh.Sum || gh.Count != wh.Count {
		t.Errorf("histogram sum/count: got %v/%d, want %v/%d", gh.Sum, gh.Count, wh.Sum, wh.Count)
	}
}

// TestParsePrometheusRejectsGarbage: a corrupted scrape fails loudly, not
// with silently-zero metrics.
func TestParsePrometheusRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"no_value_here\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} notanumber\n",
		"# TYPE h histogram\nh_bucket{nolabel=\"1\"} 3\n",
		"c 1.5.3\n",
		"# TYPE h histogram\nh_bucket{le= Inf} 0\n",
		"# TYPE h histogram\nh_bucket{le=\"NaN\"} 0\n",
		"# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\n",
		"0000000 0\n",
		"fi.plans 3\n",
	} {
		if _, err := ParsePrometheus(strings.NewReader(bad)); err == nil {
			t.Errorf("ParsePrometheus accepted %q", bad)
		}
	}
}

// TestHubBroadcast: every subscriber sees every line; a full (slow) client
// drops lines instead of blocking the writer.
func TestHubBroadcast(t *testing.T) {
	h := NewHub()
	ch1, cancel1 := h.Subscribe()
	ch2, cancel2 := h.Subscribe()
	defer cancel1()
	defer cancel2()
	h.Write([]byte("line1\n"))
	h.Write([]byte("line2\n"))
	for _, ch := range []<-chan []byte{ch1, ch2} {
		for _, want := range []string{"line1\n", "line2\n"} {
			select {
			case got := <-ch:
				if string(got) != want {
					t.Errorf("got %q, want %q", got, want)
				}
			case <-time.After(time.Second):
				t.Fatal("broadcast line never arrived")
			}
		}
	}
	// Saturate one subscriber's buffer; Write must not block.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			h.Write([]byte("flood\n"))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Hub.Write blocked on a slow subscriber")
	}
	var nilHub *Hub
	if n, err := nilHub.Write([]byte("x")); n != 1 || err != nil {
		t.Errorf("nil hub Write = %d, %v", n, err)
	}
}

// TestHubConcurrentWriters: the hub is written from campaign goroutines and
// subscribed/unsubscribed from HTTP handlers concurrently; run under -race.
func TestHubConcurrentWriters(t *testing.T) {
	h := NewHub()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fmt.Fprintf(h, "w%d line %d\n", w, i)
			}
		}(w)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ch, cancel := h.Subscribe()
				select {
				case <-ch:
				default:
				}
				cancel()
			}
		}()
	}
	wg.Wait()
}

// TestServerMetricsEndpoint: a live scrape of /metrics parses back to
// exactly the registry snapshot — the end-to-end half of the round-trip
// conformance test.
func TestServerMetricsEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("fi.plans").Add(77)
	h := r.Histogram("fi.detect_latency.cycles.detected", []float64{1, 2, 4})
	h.Observe(1)
	h.Observe(3)
	h.Observe(9)
	srv, err := StartServer("127.0.0.1:0", r.Snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	got, err := ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters["fi_plans"] != 77 {
		t.Errorf("scraped fi_plans = %d, want 77", got.Counters["fi_plans"])
	}
	gh := got.Hists["fi_detect_latency_cycles_detected"]
	want := r.Snapshot().Hists["fi.detect_latency.cycles.detected"]
	if !reflect.DeepEqual(gh.Counts, want.Counts) || gh.Count != want.Count || gh.Sum != want.Sum {
		t.Errorf("scraped histogram %+v, want %+v", gh, want)
	}
	if srv.Scrapes() != 1 {
		t.Errorf("Scrapes() = %d, want 1", srv.Scrapes())
	}
}

// TestServerAwaitScrape: AwaitScrape wakes when a scrape lands and times
// out cleanly when none does — the -serve-drain contract.
func TestServerAwaitScrape(t *testing.T) {
	r := NewRegistry()
	srv, err := StartServer("127.0.0.1:0", r.Snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.AwaitScrape(0, 50*time.Millisecond) {
		t.Error("AwaitScrape reported a scrape that never happened")
	}
	errc := make(chan error, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()
	if !srv.AwaitScrape(0, 5*time.Second) {
		t.Error("AwaitScrape missed the scrape")
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestServerProgressStream: /progress streams hub lines over chunked HTTP
// as they are written — the live NDJSON tail.
func TestServerProgressStream(t *testing.T) {
	r := NewRegistry()
	hub := NewHub()
	srv, err := StartServer("127.0.0.1:0", r.Snapshot, hub)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	go func() {
		// The subscription races the handler setup; retry until the reader
		// below sees a line.
		for i := 0; i < 100; i++ {
			hub.Write([]byte(`{"t":"progress","done":1}` + "\n"))
			time.Sleep(10 * time.Millisecond)
		}
	}()
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		t.Fatalf("reading progress stream: %v", err)
	}
	if line != `{"t":"progress","done":1}`+"\n" {
		t.Errorf("progress line = %q", line)
	}
}

// TestServerNoHub: /progress without an attached event stream 404s instead
// of hanging.
func TestServerNoHub(t *testing.T) {
	r := NewRegistry()
	srv, err := StartServer("127.0.0.1:0", r.Snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/progress without hub = %d, want 404", resp.StatusCode)
	}
}

// TestServerPprof: the pprof index answers — profiling a live campaign is
// part of the observatory contract.
func TestServerPprof(t *testing.T) {
	r := NewRegistry()
	srv, err := StartServer("127.0.0.1:0", r.Snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("/debug/pprof/ = %d, body %.80q", resp.StatusCode, body)
	}
}

// TestServerNilSafety: a disabled server (nil) is inert like every other
// obs receiver.
func TestServerNilSafety(t *testing.T) {
	var s *Server
	if s.Addr() != "" || s.Scrapes() != 0 || s.AwaitScrape(0, time.Millisecond) || s.Close() != nil {
		t.Error("nil Server methods not inert")
	}
}

// FuzzPromRoundTrip: whatever ParsePrometheus accepts, WritePrometheus
// writes as text that parses back to a snapshot written identically — so
// parse → write → parse → write is stable.
func FuzzPromRoundTrip(f *testing.F) {
	f.Add("# TYPE fi_lat histogram\nfi_lat_bucket{le= Inf}0")
	f.Add("0000000 0\nA 0")
	r := NewRegistry()
	r.Counter("fi.plans").Add(123)
	r.Gauge("sched.workers").Set(8)
	h := r.Histogram("fi.detect_latency.insts.sdc", []float64{1, 2, 4, 8, 16})
	for _, v := range []float64{1, 3, 3, 7, 40} {
		h.Observe(v)
	}
	var seed strings.Builder
	if err := WritePrometheus(&seed, r.Snapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Fuzz(func(t *testing.T, text string) {
		s1, err := ParsePrometheus(strings.NewReader(text))
		if err != nil {
			return
		}
		var w1, w2 strings.Builder
		if err := WritePrometheus(&w1, s1); err != nil {
			t.Fatal(err)
		}
		s2, err := ParsePrometheus(strings.NewReader(w1.String()))
		if err != nil {
			t.Fatalf("written text does not parse: %v\n%s", err, w1.String())
		}
		if err := WritePrometheus(&w2, s2); err != nil {
			t.Fatal(err)
		}
		if w1.String() != w2.String() {
			t.Fatalf("write is not stable:\n%s\n---\n%s", w1.String(), w2.String())
		}
	})
}
