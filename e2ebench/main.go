// Command e2ebench is the repository's end-to-end benchmark. It drives the
// FERRUM reproduction only through its public packages (harness, fi,
// compose, rodinia), checks every output it produces against invariants
// that hold for any seed, and prints one JSON result line.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload suite --seed 1 --seconds 35 --trace 0
//
// Workloads:
//
//	suite          the `reprod -exp all` sequence, in process, at several inputs
//	protected      journaled FERRUM and hybrid-EDDI asm campaigns, all benchmarks
//	compose-rerun  warm re-runs of composed fig. 10 cells served from the section cache
//
// With --trace 0 the result holds the end-to-end metrics (wall_s,
// plans_per_s, setup_s, peak_rss_mb). The run starts one replica process
// per CPU (at most two); each replica runs the whole workload with
// observability off and one busy goroutine, and reports every set-up's and
// pass's wall-clock beside the host probe times taken around and inside it.
// With --trace 1 one process alternates untraced and traced passes, and the
// result holds the per-layer breakdown read from the program's own spans and
// counters (see trace.go).
// attempted/failed count the checked units; their ratio is the workload's
// fail rate.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ferrum/internal/obs"
)

// setupReps is how many times each replica runs the workload's set-up;
// setup_s reports the median over all replicas and the last set-up's state
// is the one measured.
const setupReps = 3

// maxReplicas bounds the replica processes of an end-to-end run.
const maxReplicas = 2

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// workload is one benchmark input. setup prepares everything the timed
// passes reuse and may run several times; pass runs one fixed unit of work,
// with ob nil (observability off) or a fresh observer to trace it. Both call
// idle between their timed parts, and neither counts idle's time.
type workload interface {
	setup(chk *checker, idle func()) error
	pass(ob *obs.Observer, chk *checker, idle func()) (passOut, error)
	// composed reports whether the workload's asm campaigns run in compose
	// mode, which decides the layer that checkpoint recording is charged to.
	composed() bool
}

func newWorkload(name string, seed int64, dir string) (workload, error) {
	switch name {
	case "suite":
		return newSuite(seed), nil
	case "protected":
		return newProtected(seed, dir), nil
	case "compose-rerun":
		return newComposeRerun(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (suite, protected, compose-rerun)", name)
}

func run(argv []string) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: suite, protected, compose-rerun")
		seed    = fs.Int64("seed", 1, "input seed: every input and fault plan derives from it")
		seconds = fs.Int("seconds", 35, "measure for this many seconds (at least two passes)")
		trace   = fs.Int("trace", 0, "1: alternate untraced and traced passes and report per-layer metrics")
		replica = fs.Bool("replica", false, "run as one replica of an end-to-end run and print its raw timings")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if _, err := newWorkload(*name, *seed, ""); err != nil {
		return err
	}
	if *trace == 0 && !*replica {
		return runReplicas(argv)
	}

	// One busy goroutine per process: the harness then runs one cell lane
	// and campaigns one worker, so a larger host does not change how much
	// runs at once and every pass runs its units in the same order.
	runtime.GOMAXPROCS(1)
	// Scratch files (the protected workload's journal) stay inside the
	// checkout, under the build directory run.sh already uses.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := newWorkload(*name, *seed, dir)
	if err != nil {
		return err
	}
	budget := time.Duration(*seconds) * time.Second
	chk := &checker{}
	probe := newHostProbe()
	idle := probe.sample
	var out replicaOut
	// Probes bracket every set-up and pass; one probe ends each and begins
	// the next.
	idle()
	for i := 0; i < setupReps; i++ {
		from := len(probe.times) - 1
		t0 := time.Now()
		if err := w.setup(chk, idle); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0).Seconds()
		for _, p := range probe.times[from+1:] {
			d -= p
		}
		idle()
		out.Setups = append(out.Setups, hostTimed{d, median(probe.times[from:])})
	}

	if *replica {
		out.Passes, out.Plans, err = measure(w, chk, budget, probe, idle)
		if err != nil {
			return err
		}
		out.Attempted, out.Failed, out.Msgs = chk.attempted, chk.failed, chk.msgs
		out.PeakRSSMB = peakRSSMB()
		return json.NewEncoder(os.Stdout).Encode(out)
	}
	metrics, err := measureTraced(w, chk, budget)
	if err != nil {
		return err
	}
	return printResult(chk.attempted, chk.failed, chk.msgs, metrics)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(attempted, failed int, msgs []string, metrics map[string]metric) error {
	for _, msg := range msgs {
		fmt.Fprintln(os.Stderr, "check failed:", msg)
	}
	out, err := json.Marshal(result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// hostTimed is the wall-clock of one set-up or pass, not counting the host
// probes taken inside it, and the median of the probe times taken from just
// before it to just after it.
type hostTimed struct {
	Seconds float64 `json:"s"`
	Probe   float64 `json:"probe"`
}

// scaled is the wall-clock in seconds of a host whose probe takes
// refProbeSeconds.
func (h hostTimed) scaled() float64 { return h.Seconds * refProbeSeconds / h.Probe }

// replicaOut is what one replica process reports to the parent: its set-ups
// and passes, and its checks.
type replicaOut struct {
	Setups    []hostTimed `json:"setups"`
	Passes    []hostTimed `json:"passes"`
	Plans     int         `json:"plans"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Msgs      []string    `json:"msgs"`
	PeakRSSMB float64     `json:"peak_rss_mb"`
}

// runReplicas runs the end-to-end measurement: one replica process per
// CPU, at most maxReplicas, all running the same workload at once with the
// same seed, so a run samples every CPU of the host.
func runReplicas(argv []string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	args := append(append([]string(nil), argv...), "--replica")
	n := min(runtime.NumCPU(), maxReplicas)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	outs := make([]replicaOut, n)
	errs := make(chan error, n) // one send per started replica
	started := 0
	var all []error
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			all = append(all, err)
			cancel()
			break
		}
		started++
		go func(i int) {
			derr := json.NewDecoder(stdout).Decode(&outs[i])
			werr := cmd.Wait()
			if werr != nil || derr != nil {
				cancel() // a failed replica stops the others
			}
			errs <- errors.Join(werr, derr)
		}(i)
	}
	for i := 0; i < started; i++ {
		if err := <-errs; err != nil {
			all = append(all, err)
		}
	}
	if err := errors.Join(all...); err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	metrics, err := mergeReplicas(outs)
	if err != nil {
		return err
	}
	var attempted, failed int
	var msgs []string
	for _, o := range outs {
		attempted += o.Attempted
		failed += o.Failed
		msgs = append(msgs, o.Msgs...)
	}
	return printResult(attempted, failed, msgs, metrics)
}

// mergeReplicas turns the replicas' timings into the end-to-end metrics. On
// the host the benchmark was built on, each vCPU drifts between a fast
// state and one up to twice as slow, for seconds to minutes, and the host
// probe slows about as much as the program does. Each pass's wall-clock is
// therefore scaled by the probe times taken around and inside that pass,
// and wall_s is the median over every pass of every replica; setup_s is the
// median over every set-up, scaled the same way.
func mergeReplicas(outs []replicaOut) (map[string]metric, error) {
	var passes, setups []float64
	var rss float64
	for r, o := range outs {
		if o.Plans != outs[0].Plans {
			return nil, fmt.Errorf("replica %d resolved %d plans a pass, replica 0 %d", r, o.Plans, outs[0].Plans)
		}
		for _, p := range o.Passes {
			passes = append(passes, p.scaled())
		}
		for _, s := range o.Setups {
			setups = append(setups, s.scaled())
		}
		rss = max(rss, o.PeakRSSMB)
		fmt.Fprintf(os.Stderr, "replica %d: scaled set-ups s %.3f, passes s %.3f\n", r, setups[len(setups)-len(o.Setups):], passes[len(passes)-len(o.Passes):])
	}
	if len(passes) == 0 || len(setups) == 0 {
		return nil, errors.New("no pass was measured")
	}
	wall := median(passes)
	return map[string]metric{
		"wall_s":      {wall, "s"},
		"plans_per_s": {float64(outs[0].Plans) / wall, "plans/s"},
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {rss, "MB"},
	}, nil
}

// another reports whether to start another pass: always until min passes
// ran, then only while one more pass as long as the median so far still
// fits in the budget, so a run overshoots its budget by at most one pass's
// jitter.
func another(walls []float64, min int, start time.Time, budget time.Duration) bool {
	if len(walls) < min {
		return true
	}
	next := time.Duration(median(walls) * float64(time.Second))
	return time.Since(start)+next <= budget
}

// measure runs untraced passes until the budget is spent (at least two, so
// every workload's repeat checks run) and returns each pass with its probe
// times and the plans one pass resolves. The last probe taken precedes the
// first pass; the probe runs again between each pass's timed parts and
// after every pass.
func measure(w workload, chk *checker, budget time.Duration, probe *hostProbe, idle func()) ([]hostTimed, int, error) {
	var passes []hostTimed
	var walls []float64
	plans := 0
	start := time.Now()
	for another(walls, 2, start, budget) {
		from := len(probe.times) - 1
		t0 := time.Now()
		out, err := w.pass(nil, chk, idle)
		if err != nil {
			return nil, 0, err
		}
		idle()
		walls = append(walls, time.Since(t0).Seconds())
		passes = append(passes, hostTimed{out.wall.Seconds(), median(probe.times[from:])})
		plans = out.plans
	}
	return passes, plans, nil
}

// measureTraced alternates untraced and traced passes until the budget is
// spent (at least one of each). Untraced passes give the Go runtime figures
// and the baseline for the tracing overhead; traced passes give the span and
// counter breakdown. Every metric is a mean per pass.
func measureTraced(w workload, chk *checker, budget time.Duration) (map[string]metric, error) {
	var (
		plainWalls, rounds []float64
		rt                 runtimeCost
		layers             []map[string]metric
	)
	start := time.Now()
	for another(rounds, 1, start, budget) {
		round := time.Now()
		before := readRuntime()
		t0 := time.Now()
		if _, err := w.pass(nil, chk, func() {}); err != nil {
			return nil, err
		}
		plainWalls = append(plainWalls, time.Since(t0).Seconds())
		rt.add(before, readRuntime())

		ob := obs.New()
		t0 = time.Now()
		out, err := w.pass(ob, chk, func() {})
		if err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		layers = append(layers, analyze(ob, wall, w.composed(), out.carried))
		rounds = append(rounds, time.Since(round).Seconds())
	}
	return tracedMetrics(layers, plainWalls, rt), nil
}

// tracedMetrics averages the traced passes' breakdowns and adds the Go
// runtime figures and the tracing overhead from the untraced passes.
func tracedMetrics(layers []map[string]metric, plainWalls []float64, rt runtimeCost) map[string]metric {
	out := meanMetrics(layers)
	n := float64(len(plainWalls))
	out["go.alloc_mb"] = metric{rt.allocMB / n, "MB"}
	out["go.gc_cycles"] = metric{rt.gcs / n, "count"}
	out["go.cpu_s"] = metric{rt.cpuS / n, "s"}
	out["obs.trace_overhead_s"] = metric{out["obs.traced_wall_s"].Value - mean(plainWalls), "s"}
	delete(out, "obs.traced_wall_s")
	return out
}

// runtimeSample is a point reading of the Go runtime and process CPU time.
type runtimeSample struct {
	totalAlloc uint64
	numGC      uint32
	cpu        float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{ms.TotalAlloc, ms.NumGC, cpuSeconds()}
}

// runtimeCost sums runtime deltas over passes.
type runtimeCost struct{ allocMB, gcs, cpuS float64 }

func (c *runtimeCost) add(a, b runtimeSample) {
	c.allocMB += float64(b.totalAlloc-a.totalAlloc) / (1 << 20)
	c.gcs += float64(b.numGC - a.numGC)
	c.cpuS += b.cpu - a.cpu
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// meanMetrics averages per-pass metric maps key by key.
func meanMetrics(ms []map[string]metric) map[string]metric {
	out := map[string]metric{}
	for _, m := range ms {
		for k, v := range m {
			o := out[k]
			o.Value += v.Value / float64(len(ms))
			o.Unit = v.Unit
			out[k] = o
		}
	}
	return out
}
