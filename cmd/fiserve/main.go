// Command fiserve is the sharded campaign service: a coordinator that
// partitions deterministic fault-injection campaigns into journal shards and
// leases them to worker processes, plus the worker and the submitting client.
// Any worker count — including workers that die mid-shard and are replaced —
// produces a result table and a merged canonical journal byte-identical to a
// single-process run (see internal/fiserve).
//
// Usage:
//
//	fiserve serve  -addr 127.0.0.1:8090 -dir /tmp/fiserve -shards 4
//	fiserve worker -join http://127.0.0.1:8090 -name w1
//	fiserve run    -join http://127.0.0.1:8090 -bench bfs -technique ferrum -samples 1000
//
// The coordinator also serves the standard observability surface (/metrics,
// /progress, /debug/pprof); its /metrics reconciles exactly against the
// merged journal with `fistat -journal merged.ndjson -reconcile metrics.txt`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ferrum/internal/fiserve"
	"ferrum/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fiserve:", err)
		os.Exit(1)
	}
}

func run(argv []string, out io.Writer) error {
	if len(argv) == 0 {
		return fmt.Errorf("usage: fiserve serve|worker|run [flags] (-h for per-command flags)")
	}
	switch argv[0] {
	case "serve":
		return runServe(argv[1:], out)
	case "worker":
		return runWorker(argv[1:], out)
	case "run":
		return runSubmit(argv[1:], out)
	default:
		return fmt.Errorf("unknown command %q: want serve, worker or run", argv[0])
	}
}

// stopOnSignal closes the returned channel on SIGINT/SIGTERM.
func stopOnSignal() <-chan struct{} {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		close(stop)
	}()
	return stop
}

func runServe(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("fiserve serve", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:0", "listen address (host:port; :0 picks a free port)")
		dir     = fs.String("dir", "", "directory for shard and merged journals (required)")
		shards  = fs.Int("shards", 2, "journal shards per campaign (clamped to its sample count)")
		timeout = fs.Duration("lease-timeout", 30*time.Second, "watchdog: a lease silent this long is revoked and re-leased")
		queue   = fs.Int("queue", 16, "max unfinished campaigns across all tenants (submissions past it get 429)")
		quota   = fs.Int("tenant-quota", 0, "max unfinished campaigns per tenant (0 = same as -queue)")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("serve needs -dir for the durable shard journals")
	}
	co, err := fiserve.Start(fiserve.Config{
		Addr: *addr, Dir: *dir, Shards: *shards, LeaseTimeout: *timeout,
		QueueMax: *queue, TenantQuota: *quota,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fiserve: coordinator on http://%s (journals in %s, %d shards/campaign)\n",
		co.Addr(), *dir, *shards)
	<-stopOnSignal()
	return co.Close()
}

func runWorker(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("fiserve worker", flag.ContinueOnError)
	var (
		join    = fs.String("join", "", "coordinator base URL, e.g. http://127.0.0.1:8090 (required)")
		name    = fs.String("name", "", "worker name in leases and logs (default host:pid)")
		workers = fs.Int("workers", 0, "intra-shard campaign parallelism (0 = GOMAXPROCS)")
		poll    = fs.Duration("poll", 100*time.Millisecond, "idle lease-poll interval")
		drain   = fs.Bool("exit-on-drain", false, "exit once the coordinator has no unfinished campaigns")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *join == "" {
		return fmt.Errorf("worker needs -join with the coordinator URL")
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	w := &fiserve.Worker{
		Base: *join, Name: *name, Workers: *workers, Poll: *poll, ExitOnDrain: *drain,
	}
	fmt.Fprintf(out, "fiserve: worker %s polling %s\n", *name, *join)
	return w.Run(stopOnSignal())
}

func runSubmit(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("fiserve run", flag.ContinueOnError)
	var (
		join      = fs.String("join", "", "coordinator base URL (required)")
		tenant    = fs.String("tenant", "", "tenant name for admission quotas")
		bench     = fs.String("bench", "bfs", "benchmark name")
		technique = fs.String("technique", "ferrum", "raw, ir-level-eddi, hybrid-assembly-level-eddi, ferrum")
		level     = fs.String("level", "asm", "injection level: asm or ir")
		samples   = fs.Int("samples", 1000, "fault injections")
		seed      = fs.Int64("seed", harness.DefaultSeed, "RNG seed")
		scale     = fs.Int("scale", 1, "benchmark scale factor")
		bits      = fs.Int("bits", 1, "bits flipped per fault")
		optimize  = fs.Bool("optimize", false, "run builds through the peephole optimizer before protection")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *join == "" {
		return fmt.Errorf("run needs -join with the coordinator URL")
	}
	cl := &fiserve.Client{Base: *join, Tenant: *tenant}
	spec := harness.CampaignSpec{
		Bench: *bench, Technique: harness.Technique(*technique), Level: *level,
		Samples: *samples, Seed: *seed, Scale: *scale, Bits: *bits, Optimize: *optimize,
	}
	id, err := cl.Submit(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fiserve: campaign %s submitted, waiting\n", id)
	st, err := cl.Wait(id)
	if err != nil {
		return err
	}
	fmt.Fprint(out, st.Table)
	fmt.Fprintf(os.Stderr, "fiserve: merged journal: %s\n", st.MergedJournal)
	return nil
}
