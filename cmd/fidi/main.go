// Command fidi runs a single-bit fault-injection campaign (the paper's
// §IV-A2 methodology) against a benchmark or an IR program under a chosen
// protection technique and prints the outcome distribution.
//
// Usage:
//
//	fidi -bench pathfinder -technique ferrum -samples 1000
//	fidi -in prog.ll -args 100 -technique raw
//	fidi -bench knn -technique ir-level-eddi -level ir
//	fidi -bench bfs -technique raw -trace 8     # flight-record one fault
//	fidi -bench bfs -progress -events-out run.ndjson -trace-out t.json
//
// fidi shares reprod's observability layer (internal/obs): -progress
// streams throttled injection progress to stderr, -events-out writes the
// NDJSON span/metrics stream, -trace-out writes a Perfetto-loadable Chrome
// trace, and -cpuprofile/-memprofile capture stdlib pprof profiles.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync/atomic"

	"ferrum/internal/cli"
	"ferrum/internal/fi"
	"ferrum/internal/harness"
	"ferrum/internal/ir"
	"ferrum/internal/irpass"
	"ferrum/internal/machine"
	"ferrum/internal/rodinia"
)

// errw carries progress and the checkpoint summary; tests swap it for a
// buffer.
var errw io.Writer = os.Stderr

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fidi:", err)
		os.Exit(1)
	}
}

func run(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("fidi", flag.ContinueOnError)
	cf := cli.Register(fs)
	var (
		benchName = fs.String("bench", "", "benchmark name (see -list)")
		inPath    = fs.String("in", "", "IR program file (alternative to -bench)")
		argsStr   = fs.String("args", "", "comma-separated entry arguments for -in programs")
		technique = fs.String("technique", "ferrum", "raw, ir-level-eddi, hybrid-assembly-level-eddi, ferrum")
		level     = fs.String("level", "asm", "injection level: asm or ir (ir implies ir-level techniques)")
		bits      = fs.Int("bits", 1, "bits flipped per fault (multi-bit upsets)")
		list      = fs.Bool("list", false, "list benchmarks and exit")
		trace     = fs.Int("trace", 0, "replay one sampled fault of each non-benign outcome and print the last N executed instructions")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *list {
		for _, b := range rodinia.All() {
			fmt.Fprintf(out, "%-16s %s\n", b.Name, b.Domain)
		}
		return nil
	}

	var (
		mod  *ir.Module
		args []uint64
		load func(fi.MemWriter) error
	)
	switch {
	case *benchName != "":
		b, ok := rodinia.ByName(*benchName)
		if !ok {
			return fmt.Errorf("unknown benchmark %q (try -list)", *benchName)
		}
		inst, err := b.Instantiate(cf.Opts.Scale, cf.Opts.Seed)
		if err != nil {
			return err
		}
		mod, args = inst.Mod, inst.Args
		load = func(w fi.MemWriter) error { return inst.Setup(w) }
	case *inPath != "":
		src, err := os.ReadFile(*inPath)
		if err != nil {
			return err
		}
		mod, err = ir.Parse(string(src))
		if err != nil {
			return err
		}
		for _, tok := range strings.Split(*argsStr, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			v, err := strconv.ParseInt(tok, 0, 64)
			if err != nil {
				return fmt.Errorf("bad argument %q: %v", tok, err)
			}
			args = append(args, uint64(v))
		}
		load = func(fi.MemWriter) error { return nil }
	default:
		return fmt.Errorf("one of -bench or -in is required")
	}
	cellName := *benchName
	if cellName == "" {
		cellName = *inPath
	}

	// The spec names the one campaign; it is checked, and the journal meta
	// derived from it, before anything is opened.
	o := cf.Opts
	spec := harness.CampaignSpec{
		Bench: cellName, Technique: harness.Technique(*technique), Level: *level,
		Samples: o.Samples, Seed: o.Seed, Scale: o.Scale, Bits: *bits,
	}
	campaign := spec.Campaign(o.Campaign())
	if err := spec.Check(campaign); err != nil {
		return err
	}
	return cf.Run("fidi", argv, errw, spec.Meta("fidi", campaign), func(s *cli.Session) error {
		// The single campaign runs on the main goroutine, so every span
		// lands on lane 0.
		cx := s.Obs.Cell(cellName+"/"+*technique, 0)
		key := cellName + "/" + *technique + "/" + *level
		campaign.Journal, campaign.Key, campaign.Prior = s.Journal, key, s.Resume.Cell(key)
		campaign.Obs = cx
		if cf.Progress && o.Samples > 0 {
			campaign.Progress = throttledProgress(o.Samples)
		}

		var res fi.Result
		var tgt fi.AsmTarget
		var err error
		if *level == "ir" {
			target := mod
			if spec.Technique == harness.IREDDI {
				if target, err = irpass.EDDI(mod); err != nil {
					return err
				}
			}
			res, err = fi.RunIRCampaign(fi.IRTarget{
				Mod: target, MemSize: 1 << 20, Args: args, Setup: load,
			}, campaign)
		} else {
			bsp := cx.Span("build")
			bsp.SetAttr("tech", *technique)
			build, berr := harness.BuildTechnique(mod, spec.Technique)
			bsp.End()
			if berr != nil {
				return berr
			}
			tgt = fi.AsmTarget{Prog: build.Prog, MemSize: 1 << 20, Args: args, Setup: load}
			res, err = fi.RunAsmCampaign(tgt, campaign)
		}
		if err != nil {
			return err
		}
		// The campaign counters are final from here on: freeze before the
		// report, so a watcher that reacts to it always scrapes them.
		if err := s.Freeze(); err != nil {
			return err
		}
		if err := report(out, *technique, *level, res); err != nil {
			return err
		}
		if *trace > 0 && tgt.Prog != nil {
			tsp := cx.Span("trace.replay")
			defer tsp.End()
			return traceExamples(out, tgt, campaign, res, *trace)
		}
		return nil
	}, nil)
}

// throttledProgress prints injection progress in ~10% steps. The hook
// fires from concurrent campaign workers, so the high-water mark is
// advanced with a CAS.
func throttledProgress(samples int) func(int) {
	step := max(samples/10, 1)
	var next atomic.Int64
	next.Store(int64(step))
	return func(done int) {
		for {
			n := next.Load()
			if int64(done) < n {
				return
			}
			if next.CompareAndSwap(n, n+int64(step)) {
				fmt.Fprintf(errw, "injected %d/%d\n", done, samples)
				return
			}
		}
	}
}

// report renders the outcome table to out and the mode summaries
// (early stop, checkpointing, pruning, compose) to stderr. A composed
// validation outside tolerance is an error.
func report(out io.Writer, technique, level string, res fi.Result) error {
	harness.RenderCampaign(out, technique, level, res)
	lo, hi := res.CI95()
	if res.EarlyStopped {
		fmt.Fprintf(errw, "early stop: SDC-rate CI width reached %.4f after %d samples\n",
			hi-lo, res.Samples)
	}
	if cp := res.Checkpoint; cp.Enabled {
		fmt.Fprintf(errw,
			"checkpointing: K=%d, %d snapshots (%d KiB), %d restores, %d cold starts, %d insts skipped\n",
			cp.Interval, cp.Snapshots, cp.SnapshotBytes>>10,
			cp.Restores, cp.ColdStarts, cp.SkippedInsts)
	}
	if pr := res.Pruned; pr.Enabled {
		fmt.Fprintf(errw,
			"pruning (%s): %d of %d plans answered statically (%d dead, %d masked, %d deduped), %d executed across %d classes\n",
			pr.Mode, pr.Planned-pr.Executed, pr.Planned,
			pr.Dead, pr.Masked, pr.Deduped, pr.Executed, pr.Classes)
	}
	cs := res.Composed
	if !cs.Enabled {
		return nil
	}
	fmt.Fprintf(errw,
		"compose (%s): %d sections at K=%d; %d of %d plans classified at their section boundary, %d fell back to end-to-end\n",
		cs.Mode, len(cs.Rows), cs.Interval, cs.Sections, cs.Composed, cs.Fallbacks)
	if v := cs.Validation; v != nil {
		verdict := "within"
		if !v.OK {
			verdict = "OUTSIDE"
		}
		fmt.Fprintf(errw,
			"compose validate: SDC %.4f vs monolithic %.4f (tol %.4f), detected %.4f vs %.4f (tol %.4f) — %s tolerance\n",
			v.SDC, v.MonoSDC, v.SDCTol, v.Detected, v.MonoDetected, v.DetectedTol, verdict)
		if !v.OK {
			return fmt.Errorf("compose validation failed: composed rates fall outside the monolithic Wilson tolerance")
		}
	}
	return nil
}

// traceExamples replays the first sampled fault of each non-benign outcome
// the campaign saw, printing its last n executed instructions.
func traceExamples(out io.Writer, tgt fi.AsmTarget, c fi.Campaign, res fi.Result, n int) error {
	for _, want := range []fi.Outcome{fi.SDC, fi.Detected, fi.Crash} {
		if res.Count(want) == 0 {
			continue
		}
		f, ok, err := fi.FindExample(tgt, c, want)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		m, err := machine.New(tgt.Prog, tgt.MemSize)
		if err != nil {
			return err
		}
		if err := tgt.Setup(m); err != nil {
			return err
		}
		r := m.Run(machine.RunOpts{Args: tgt.Args, Fault: &f, Trace: n})
		fmt.Fprintf(out, "\nexample %s fault (site %d, bit %d) — last %d instructions:\n",
			want, f.Site, f.Bit, len(r.Trace))
		for _, line := range r.Trace {
			fmt.Fprintln(out, "  "+line)
		}
	}
	return nil
}
