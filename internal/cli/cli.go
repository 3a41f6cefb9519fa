// Package cli is the command-line plumbing the campaign tools (fidi and
// reprod) share: the campaign-shape flags, the -journal/-resume lifecycle
// and the observability sinks (-serve, -serve-drain, -events-out,
// -trace-out, -cpuprofile, -memprofile).
//
// A tool registers the shared flags beside its own, parses, builds and
// checks its campaign spec from Flags.Opts, derives the journal meta from
// that spec, and hands its body to Flags.Run. Run opens the sinks and the
// journal only then — an invalid invocation never truncates a journal —
// runs the body, and closes everything in order, returning the first
// error, close errors on written files included.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ferrum/internal/fi"
	"ferrum/internal/harness"
	"ferrum/internal/obs"
)

// Flags holds the flags both campaign tools register.
type Flags struct {
	// Opts receives the campaign-shape flags in place (-samples, -seed,
	// -scale, -no-checkpoint, -prune, -compose). A tool binds
	// its own option flags into it too.
	Opts harness.Options
	// Progress is -progress; each tool renders its own progress lines.
	Progress bool

	journal    string
	resume     bool
	serve      string
	serveDrain time.Duration
	eventsOut  string
	traceOut   string
	cpuProfile string
	memProfile string
}

// Register adds the shared flags to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	o := &f.Opts
	fs.IntVar(&o.Samples, "samples", 1000, "fault injections per campaign")
	fs.Int64Var(&o.Seed, "seed", harness.DefaultSeed, "RNG seed (any value, including 0, is honoured)")
	fs.IntVar(&o.Scale, "scale", 1, "benchmark scale factor")
	fs.BoolVar(&o.NoCheckpoint, "no-checkpoint", false, "disable checkpointed fast-forwarding (identical results, slower campaigns)")
	fs.Var(&o.Prune, "prune", "static fault-site pruning for asm campaigns: off, exact (answers dead and masked plans, bit-identical), full (adds class dedup, statistical)")
	fs.Var(&o.Compose, "compose", "compositional asm campaigns: off, on (sectioned at checkpoint boundaries), validate (also run the monolithic campaign and gate the composed rates against it)")
	fs.BoolVar(&f.Progress, "progress", false, "stream live progress to stderr")
	fs.StringVar(&f.journal, "journal", "", "write a crash-safe campaign journal (NDJSON) to this file; resume an interrupted run with -resume")
	fs.BoolVar(&f.resume, "resume", false, "resume from the -journal file of an interrupted run: journaled plans and campaigns are not re-run, output is byte-identical")
	fs.StringVar(&f.serve, "serve", "", "serve live observability over HTTP on this address (host:port; :0 picks a port): /metrics, /progress, /debug/pprof")
	fs.DurationVar(&f.serveDrain, "serve-drain", 0, "with -serve: after the run completes, keep serving until one more /metrics scrape lands or this much time passes (0 = exit immediately)")
	fs.StringVar(&f.eventsOut, "events-out", "", "write NDJSON observability events (spans + final metrics) to this file")
	fs.StringVar(&f.traceOut, "trace-out", "", "write a Chrome trace_event JSON (Perfetto-loadable timeline) to this file")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a pprof heap profile to this file")
	return f
}

// Session is what a tool's body runs with.
type Session struct {
	Obs     *obs.Observer    // every campaign reports here
	Journal *fi.Journal      // the open journal; nil without -journal
	Resume  *fi.JournalState // the journal's loaded state under -resume, else nil

	server  *obs.Server
	frozen  bool
	scrapes int64
	err     error
}

// Freeze marks the campaign counters final: it closes the journal and
// notes the /metrics scrape count, so -serve-drain waits for a scrape that
// reads the final counters. A tool calls it before writing the output a
// watcher reacts to; Run calls it after the body otherwise. Idempotent; it
// returns the journal's close error.
func (s *Session) Freeze() error {
	if !s.frozen {
		s.frozen = true
		if err := s.Journal.Close(); err != nil {
			s.err = fmt.Errorf("journal: %w", err)
		}
		s.scrapes = s.server.Scrapes()
	}
	return s.err
}

// createJournal opens a fresh journal; tests substitute failing sinks.
var createJournal = fi.CreateJournal

// Run executes one invocation of tool (its name tags the event stream).
// meta is the journal meta derived from the tool's already checked spec.
// body runs the campaigns and writes the tool's output; summary, if
// non-nil, renders from the final registry snapshot, given the body's
// wall-clock. Run returns the first error of the body, the journal or any
// file it wrote.
func (f *Flags) Run(tool string, argv []string, errw io.Writer, meta fi.JournalMeta,
	body func(*Session) error, summary func(obs.Snapshot, time.Duration, []obs.Span)) (err error) {
	if f.resume && f.journal == "" {
		return errors.New("-resume requires -journal")
	}
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	if f.cpuProfile != "" {
		pf, err := os.Create(f.cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			keep(pf.Close())
		}()
	}
	s := &Session{Obs: obs.New()}

	// -serve: /metrics snapshots the registry on demand; /progress streams
	// the NDJSON events through a broadcast hub.
	var sink io.Writer
	if f.serve != "" {
		hub := obs.NewHub()
		srv, err := obs.StartServer(f.serve, s.Obs.Reg.Snapshot, hub)
		if err != nil {
			return err
		}
		defer srv.Close()
		s.server, sink = srv, hub
		fmt.Fprintf(errw, "serving http://%s (/metrics, /progress, /debug/pprof)\n", srv.Addr())
	}
	if f.eventsOut != "" {
		ef, err := os.Create(f.eventsOut)
		if err != nil {
			return err
		}
		defer func() { keep(ef.Close()) }()
		if sink != nil {
			sink = io.MultiWriter(ef, sink)
		} else {
			sink = ef
		}
	}
	var events *obs.NDJSON
	if sink != nil {
		events = obs.NewNDJSON(sink, time.Time{})
		events.Attach(s.Obs.Trace)
		events.Meta(tool, argv)
	}

	if err := s.openJournal(f.journal, f.resume, meta, errw); err != nil {
		return err
	}
	defer func() { keep(s.Freeze()) }()
	start := time.Now()
	if err := body(s); err != nil {
		return err
	}
	if err := s.Freeze(); err != nil {
		return err
	}

	// One snapshot feeds the summary and the NDJSON metrics record, so
	// they always reconcile; the Perfetto export shares the tracer's span
	// list and epoch.
	snap, spans := s.Obs.Reg.Snapshot(), s.Obs.Trace.Spans()
	if summary != nil {
		summary(snap, time.Since(start), spans)
	}
	if events != nil {
		events.Metrics(snap)
		if err := events.Err(); err != nil {
			return err
		}
	}
	if f.traceOut != "" {
		if err := writeFile(f.traceOut, func(w io.Writer) error {
			return obs.WriteTrace(w, spans, s.Obs.Trace.Epoch())
		}); err != nil {
			return err
		}
	}
	if f.memProfile != "" {
		if err := writeFile(f.memProfile, func(w io.Writer) error {
			runtime.GC()
			return pprof.WriteHeapProfile(w)
		}); err != nil {
			return err
		}
	}
	// Drain window: hold the endpoint open until a post-freeze scrape reads
	// the final counters — CI reconciles against it.
	if f.serveDrain > 0 {
		s.server.AwaitScrape(s.scrapes, f.serveDrain)
	}
	return nil
}

// openJournal creates the -journal file, or under -resume loads it, checks
// its meta against the invocation's and reopens it for appending.
func (s *Session) openJournal(path string, resume bool, meta fi.JournalMeta, errw io.Writer) error {
	switch {
	case path == "":
		return nil
	case !resume:
		j, err := createJournal(path, meta)
		if err != nil {
			return err
		}
		s.Journal = j
	default:
		st, j, err := fi.ResumeJournal(path)
		if err != nil {
			return err
		}
		if err := st.Meta.Check(meta); err != nil {
			j.Close()
			return err
		}
		if st.TornDropped {
			fmt.Fprintln(errw, "journal: dropped a torn trailing record; its plan will re-run")
		}
		complete, partial := st.Cells()
		fmt.Fprintf(errw, "journal: resuming %s (%d complete cells, %d partial)\n", path, complete, partial)
		s.Journal, s.Resume = j, st
	}
	s.Journal.Observe(s.Obs)
	return nil
}

// writeFile creates path and fills it with write, reporting Close's error
// too: a failed final flush must not pass for a written file.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
