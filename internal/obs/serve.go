package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// serve.go is the live observability surface: a stdlib net/http server
// exposing the metrics registry as Prometheus text exposition (/metrics),
// the NDJSON event stream over chunked HTTP (/progress), and the stdlib
// pprof handlers (/debug/pprof). One Server per process, enabled by the
// CLIs' -serve flag; the planned fiserve coordinator scrapes the same
// endpoints per worker shard.

// SanitizeMetricName maps a registry metric name onto the Prometheus data
// model: [a-zA-Z_:][a-zA-Z0-9_:]*. Dots (the registry's namespace
// separator) and any other invalid rune become underscores; a leading
// digit gains an underscore prefix. "sched.timeouts" → "sched_timeouts".
func SanitizeMetricName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_' || r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatFloat renders a float the way the exposition format expects:
// shortest round-trippable decimal, "+Inf" for the unbounded bucket.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders a registry snapshot in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative le-bucketed series with _sum and
// _count. Output is sorted by metric name, so two snapshots with equal
// contents render byte-identically — scrapes are diffable.
func WritePrometheus(w io.Writer, s Snapshot) error {
	bw := bufio.NewWriter(w)
	for _, name := range sortedKeys(s.Counters) {
		n := SanitizeMetricName(name)
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		n := SanitizeMetricName(name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", n, n, s.Gauges[name])
	}
	hists := make([]string, 0, len(s.Hists))
	for name := range s.Hists {
		hists = append(hists, name)
	}
	sort.Strings(hists)
	for _, name := range hists {
		h := s.Hists[name]
		n := SanitizeMetricName(name)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", n)
		var cum int64
		for i, bound := range h.Bounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", n, formatFloat(bound), cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count)
		fmt.Fprintf(bw, "%s_sum %s\n", n, formatFloat(h.Sum))
		fmt.Fprintf(bw, "%s_count %d\n", n, h.Count)
	}
	return bw.Flush()
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ParsePrometheus reads text exposition back into a Snapshot keyed by the
// sanitised metric names. Histogram buckets are de-cumulated back into
// per-bucket counts, so WritePrometheus∘ParsePrometheus round-trips a
// snapshot (modulo name sanitisation). This is the scrape side of the
// reconciliation story: fistat parses a saved /metrics body with it and
// diffs against the journal's own totals.
//
// It accepts only what WritePrometheus can write back unchanged: a sample
// name SanitizeMetricName would rewrite, a finite bucket bound that is not
// above the previous one, and any infinite or NaN bound other than the
// literal "+Inf" bucket are errors. So parse → write → parse → write is
// stable (FuzzPromRoundTrip).
func ParsePrometheus(r io.Reader) (Snapshot, error) {
	s := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]HistSnapshot{},
	}
	types := map[string]string{}
	type histAcc struct {
		bounds []float64
		cums   []int64
		sum    float64
		count  int64
	}
	hists := map[string]*histAcc{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) == 4 && f[1] == "TYPE" {
				types[f[2]] = f[3]
			}
			continue
		}
		name, rest, ok := cutSample(line)
		if !ok {
			return s, fmt.Errorf("obs: unparseable exposition line %q", line)
		}
		if name == "" || SanitizeMetricName(name) != name {
			return s, fmt.Errorf("obs: invalid metric name %q", name)
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			base := strings.TrimSuffix(name, "_bucket")
			if types[base] != "histogram" {
				return s, fmt.Errorf("obs: bucket sample for non-histogram %q", base)
			}
			le, val, err := parseBucket(rest)
			if err != nil {
				return s, err
			}
			h := hists[base]
			if h == nil {
				h = &histAcc{}
				hists[base] = h
			}
			if le == "+Inf" {
				h.count = val
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return s, fmt.Errorf("obs: bad le %q: %v", le, err)
			}
			if math.IsInf(bound, 0) || math.IsNaN(bound) {
				return s, fmt.Errorf("obs: bad le %q: only the +Inf bucket is unbounded", le)
			}
			if n := len(h.bounds); n > 0 && bound <= h.bounds[n-1] {
				return s, fmt.Errorf("obs: le %q does not ascend from %s", le, formatFloat(h.bounds[n-1]))
			}
			h.bounds = append(h.bounds, bound)
			h.cums = append(h.cums, val)
		case strings.HasSuffix(name, "_sum") && types[strings.TrimSuffix(name, "_sum")] == "histogram":
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return s, fmt.Errorf("obs: bad sum in %q: %v", line, err)
			}
			base := strings.TrimSuffix(name, "_sum")
			if hists[base] == nil {
				hists[base] = &histAcc{}
			}
			hists[base].sum = v
		case strings.HasSuffix(name, "_count") && types[strings.TrimSuffix(name, "_count")] == "histogram":
			// The +Inf bucket already carries the total; _count re-states it.
			continue
		default:
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				return s, fmt.Errorf("obs: bad value in %q: %v", line, err)
			}
			if types[name] == "gauge" {
				s.Gauges[name] = v
			} else {
				s.Counters[name] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return s, err
	}
	for base, h := range hists {
		hs := HistSnapshot{
			Bounds: h.bounds,
			Counts: make([]int64, len(h.bounds)+1),
			Sum:    h.sum,
			Count:  h.count,
		}
		var prev int64
		for i, c := range h.cums {
			hs.Counts[i] = c - prev
			prev = c
		}
		hs.Counts[len(h.bounds)] = h.count - prev
		s.Hists[base] = hs
	}
	return s, nil
}

// cutSample splits an exposition sample line into metric name (with any
// label suffix folded into rest) and the remainder holding labels + value.
func cutSample(line string) (name, rest string, ok bool) {
	for i, r := range line {
		if r == '{' || r == ' ' || r == '\t' {
			return line[:i], line[i:], true
		}
	}
	return "", "", false
}

// parseBucket extracts the le label and value from `{le="..."} N`.
func parseBucket(rest string) (le string, val int64, err error) {
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, "{") {
		return "", 0, fmt.Errorf("obs: bucket sample without labels: %q", rest)
	}
	end := strings.Index(rest, "}")
	if end < 0 {
		return "", 0, fmt.Errorf("obs: unterminated labels: %q", rest)
	}
	labels, value := rest[1:end], strings.TrimSpace(rest[end+1:])
	for _, kv := range strings.Split(labels, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if ok && strings.TrimSpace(k) == "le" {
			le = strings.Trim(strings.TrimSpace(v), `"`)
		}
	}
	if le == "" {
		return "", 0, fmt.Errorf("obs: bucket sample without le: %q", rest)
	}
	val, err = strconv.ParseInt(value, 10, 64)
	return le, val, err
}

// Hub is a broadcast io.Writer: every Write fans out to all subscribers.
// The NDJSON sink writes through it so /progress clients see the live
// event stream. Slow clients drop lines instead of stalling the campaign
// (their buffered channel fills); the writer never blocks.
type Hub struct {
	mu   sync.Mutex
	subs map[chan []byte]struct{}
}

// NewHub returns an empty hub; it is usable as an io.Writer immediately.
func NewHub() *Hub { return &Hub{subs: map[chan []byte]struct{}{}} }

// Write broadcasts p (copied — callers reuse their buffers) to every
// subscriber; it never blocks and never fails.
func (h *Hub) Write(p []byte) (int, error) {
	if h == nil {
		return len(p), nil
	}
	h.mu.Lock()
	if len(h.subs) > 0 {
		cp := append([]byte(nil), p...)
		for ch := range h.subs {
			select {
			case ch <- cp:
			default: // slow client: drop this line rather than stall
			}
		}
	}
	h.mu.Unlock()
	return len(p), nil
}

// Subscribe registers a new client; cancel unregisters it and must be
// called exactly once.
func (h *Hub) Subscribe() (<-chan []byte, func()) {
	ch := make(chan []byte, 256)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch, func() {
		h.mu.Lock()
		delete(h.subs, ch)
		h.mu.Unlock()
	}
}

// Server is the live observability endpoint. Zero campaign-path cost: the
// only interaction with the run is snapshotting the registry when a scrape
// arrives.
type Server struct {
	ln      net.Listener
	srv     *http.Server
	hub     *Hub
	mu      sync.Mutex
	scrapes int64
	cond    *sync.Cond
}

// StartServer listens on addr (host:port; ":0" picks a free port) and
// serves /metrics from snap, /progress from hub, and /debug/pprof. snap is
// called per scrape, so a scrape after the run's summary sees the final
// frozen counters.
func StartServer(addr string, snap func() Snapshot, hub *Hub) (*Server, error) {
	return StartServerMux(addr, snap, hub, nil)
}

// StartServerMux is StartServer with caller-supplied routes: extra, if
// non-nil, is handed the mux before the server starts, so a service (the
// fiserve coordinator) can mount its API next to the standard observability
// surface and share one listener.
func StartServerMux(addr string, snap func() Snapshot, hub *Hub, extra func(*http.ServeMux)) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: serve: %w", err)
	}
	s := &Server{ln: ln, hub: hub}
	s.cond = sync.NewCond(&s.mu)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, snap())
		s.mu.Lock()
		s.scrapes++
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		if hub == nil {
			http.Error(w, "no event stream attached", http.StatusNotFound)
			return
		}
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		ch, cancel := hub.Subscribe()
		defer cancel()
		fl.Flush()
		for {
			select {
			case line := <-ch:
				if _, err := w.Write(line); err != nil {
					return
				}
				fl.Flush()
			case <-r.Context().Done():
				return
			}
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if extra != nil {
		extra(mux)
	}
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr is the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Scrapes reports how many /metrics scrapes have been answered.
func (s *Server) Scrapes() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scrapes
}

// AwaitScrape blocks until more than after scrapes have been answered, or
// the timeout elapses; it reports whether the scrape arrived. The CLIs use
// it to keep -serve alive just long enough for one final scrape of the
// frozen end-of-run counters.
func (s *Server) AwaitScrape(after int64, timeout time.Duration) bool {
	if s == nil {
		return false
	}
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.scrapes <= after {
		if time.Now().After(deadline) {
			return false
		}
		s.cond.Wait()
	}
	return true
}

// Close stops the listener and any in-flight handlers.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
