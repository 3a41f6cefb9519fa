// Command reprod regenerates the paper's evaluation: Table I, Table II,
// fig. 10 (SDC coverage), fig. 11 (runtime overhead), the §IV-B3 FERRUM
// transform-time measurement, the cross-layer anticipated-vs-measured
// coverage gap, and two extension experiments (overhead attribution and
// input variation).
//
// All experiments in one invocation share a build cache, so each
// (benchmark, technique, optimize) program is compiled and decoded once,
// whatever inputs use it, and each golden runs once per input; independent
// campaign cells run concurrently (bounded by
// -cell-workers) without changing any table byte. -progress streams live
// cell status to stderr; a suite summary rendered from the observability
// registry always goes to stderr at the end.
//
// The whole pipeline is instrumented through internal/obs: every phase
// (builds, golden runs, snapshot recording, injection loops, table renders)
// is a span attributed to the scheduler cell and worker lane that ran it.
// -events-out streams spans and final counters as NDJSON; -trace-out writes
// a Chrome trace_event JSON that loads directly in Perfetto
// (ui.perfetto.dev) with one timeline row per cell-worker lane;
// -cpuprofile/-memprofile capture stdlib pprof profiles.
//
// Usage:
//
//	reprod                       # everything, paper-scale campaigns
//	reprod -exp fig10 -samples 500
//	reprod -exp fig11 -bench bfs,knn
//	reprod -exp profile          # where does the overhead go
//	reprod -progress             # live per-cell status on stderr
//	reprod -events-out run.ndjson -trace-out run.trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"ferrum/internal/cli"
	"ferrum/internal/harness"
	"ferrum/internal/obs"
)

// errw carries progress and the suite summary; tests swap it for a buffer.
var errw io.Writer = os.Stderr

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reprod:", err)
		os.Exit(1)
	}
}

// experiments lists the -exp names in the order "all" runs them.
var experiments = []string{"table1", "table2", "fig10", "fig11", "exectime", "profile", "variation", "gap"}

func run(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("reprod", flag.ContinueOnError)
	cf := cli.Register(fs)
	o := &cf.Opts
	exp := fs.String("exp", "all", "experiment: all, table1, table2, fig10, fig11, exectime, gap, profile, variation")
	benches := fs.String("bench", "", "comma-separated benchmark subset (default: all eight)")
	fs.IntVar(&o.Workers, "workers", 0, "intra-campaign parallelism (0 = GOMAXPROCS/cell-workers)")
	fs.IntVar(&o.CellWorkers, "cell-workers", 0, "concurrent campaign cells (0 = GOMAXPROCS); any value yields identical tables")
	fs.BoolVar(&o.Optimize, "O1", false, "run builds through the peephole optimizer before protection")
	fs.DurationVar(&o.CellTimeout, "cell-timeout", 0, "per-cell watchdog: cancel and record any cell still running after this long (0 = off)")
	fs.IntVar(&o.MaxRetries, "max-retries", 0, "re-attempt a transiently failing cell up to this many extra times")
	fs.DurationVar(&o.RetryBackoff, "retry-backoff", 0, "sleep before the first cell retry, doubled each further attempt")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *exp != "all" && !slices.Contains(experiments, *exp) {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	if *benches != "" {
		for _, b := range strings.Split(*benches, ",") {
			o.Benchmarks = append(o.Benchmarks, strings.TrimSpace(b))
		}
	}
	if err := o.Check(); err != nil {
		return err
	}
	o.Cache = harness.NewBuildCache()
	if cf.Progress {
		o.Progress = printCellEvent
	}

	// The meta fingerprints everything that shapes fault plans; -resume
	// refuses a journal recorded under a different configuration.
	return cf.Run("reprod", argv, errw, o.Meta("reprod", *exp), func(s *cli.Session) error {
		opts := *o
		opts.Obs, opts.Journal, opts.Resume = s.Obs, s.Journal, s.Resume
		// render wraps a table render in a main-lane span, so the trace
		// shows where the wall-clock between experiments went.
		mainCx := s.Obs.Cell("", 0)
		render := func(table, text string) {
			sp := mainCx.Span("render")
			sp.SetAttr("table", table)
			fmt.Fprintln(out, text)
			sp.End()
		}
		for _, name := range experiments {
			if *exp == "all" || *exp == name {
				if err := runExperiment(name, opts, out, render); err != nil {
					return err
				}
			}
		}
		return nil
	}, func(snap obs.Snapshot, wall time.Duration, spans []obs.Span) {
		obs.RenderSummary(errw, snap, wall, spans)
	})
}

// runExperiment runs one experiment and renders its tables.
func runExperiment(name string, opts harness.Options, out io.Writer, render func(table, text string)) error {
	switch name {
	case "table1":
		render("table1", harness.RenderTable1())
	case "table2":
		rows, err := harness.Table2(opts)
		if err != nil {
			return err
		}
		render("table2", harness.RenderTable2(rows))
	case "fig10":
		fmt.Fprintln(out, "running fig. 10 campaigns (this is the expensive one)...")
		rows, err := harness.Fig10(opts)
		if err != nil {
			return err
		}
		render("fig10", harness.RenderFig10(rows))
		render("latency", harness.RenderLatency(rows))
	case "fig11":
		rows, err := harness.Fig11(opts)
		if err != nil {
			return err
		}
		render("fig11", harness.RenderFig11(rows))
	case "exectime":
		rows, err := harness.ExecTime(opts)
		if err != nil {
			return err
		}
		render("exectime", harness.RenderExecTime(rows))
	case "profile":
		rows, err := harness.Profile(opts)
		if err != nil {
			return err
		}
		render("profile", harness.RenderProfile(rows))
	case "variation":
		rows, err := harness.Variation(opts, 5)
		if err != nil {
			return err
		}
		render("variation", harness.RenderVariation(rows))
	case "gap":
		fmt.Fprintln(out, "running cross-layer gap campaigns...")
		rows, err := harness.Gap(opts)
		if err != nil {
			return err
		}
		render("gap", harness.RenderGap(rows))
	}
	return nil
}

// printCellEvent renders one -progress line per cell start and completion.
func printCellEvent(ev harness.CellEvent) {
	if !ev.Done {
		fmt.Fprintf(errw, "[%s] %s ...\n", ev.Experiment, ev.Cell)
		return
	}
	rate := ""
	if ev.Injections > 0 && ev.Wall > 0 {
		rate = fmt.Sprintf(", %.0f inj/s", float64(ev.Injections)/ev.Wall.Seconds())
	}
	status := "done"
	if ev.Err != nil {
		status = "FAILED: " + ev.Err.Error()
	}
	fmt.Fprintf(errw, "[%s] %s %s in %v (%d inj%s) [%d/%d]\n",
		ev.Experiment, ev.Cell, status, ev.Wall.Round(time.Millisecond),
		ev.Injections, rate, ev.Index+1, ev.Total)
}
