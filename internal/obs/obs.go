// Package obs is the runner's unified observability core: a metrics
// registry (counters, gauges, fixed-bucket histograms), span-based tracing
// of every pipeline phase, and pluggable sinks (NDJSON event stream,
// Chrome trace_event/Perfetto timeline export, human end-of-run summary).
//
// One Observer is injected from the CLI down through the harness scheduler
// into the fault-injection campaigns, superseding the bespoke telemetry the
// layers grew separately (BuildCache hit/miss counters, a checkpointing
// stats adapter since deleted, the hand-formatted stderr suite summary).
//
// Everything is provably off-path when disabled: nil Observer, Registry,
// Tracer, Ctx, Counter, Gauge, Histogram and ActiveSpan are all valid
// receivers whose methods are no-ops, so instrumented call sites never
// branch on an "enabled" flag and the injection inner loop — which is never
// instrumented per-instruction in the first place — pays nothing.
package obs

// Observer bundles the injectable observability state: one metrics
// registry and one span tracer. A nil *Observer disables everything.
type Observer struct {
	Reg   *Registry
	Trace *Tracer
}

// New returns an Observer with a fresh registry and tracer.
func New() *Observer {
	return &Observer{Reg: NewRegistry(), Trace: NewTracer()}
}

// Cell returns a per-cell handle carrying the cell name and worker lane, so
// phases deep in the pipeline (campaign golden runs, snapshot recording,
// the injection loop) can emit spans attributed to the scheduler cell that
// ran them. Nil observers return nil handles.
func (o *Observer) Cell(cell string, lane int) *Ctx {
	if o == nil {
		return nil
	}
	return &Ctx{obs: o, cell: cell, lane: lane}
}

// Counter resolves a registry counter; nil-safe.
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Reg.Counter(name)
}

// Ctx is an Observer scoped to one scheduler cell (name + worker lane).
// A nil *Ctx is valid and inert.
type Ctx struct {
	obs  *Observer
	cell string
	lane int
}

// Span opens a span named name on this cell's lane.
func (c *Ctx) Span(name string) *ActiveSpan {
	if c == nil {
		return nil
	}
	return c.obs.Trace.Start(name, c.cell, c.lane)
}

// Counter resolves a registry counter.
func (c *Ctx) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	return c.obs.Reg.Counter(name)
}

// Gauge resolves a registry gauge.
func (c *Ctx) Gauge(name string) *Gauge {
	if c == nil {
		return nil
	}
	return c.obs.Reg.Gauge(name)
}

// Histogram resolves a registry histogram.
func (c *Ctx) Histogram(name string, bounds []float64) *Histogram {
	if c == nil {
		return nil
	}
	return c.obs.Reg.Histogram(name, bounds)
}

// Cell returns the cell name ("" on nil).
func (c *Ctx) CellName() string {
	if c == nil {
		return ""
	}
	return c.cell
}

// Lane returns the worker lane (0 on nil).
func (c *Ctx) Lane() int {
	if c == nil {
		return 0
	}
	return c.lane
}

// Canonical metric names shared by the layers that report and the sinks
// that render, so the NDJSON stream, the Perfetto export and the human
// summary all reconcile against one source of truth.
const (
	// Scheduler-level (one increment per completed cell).
	MCells         = "sched.cells"        // completed cells
	MCellErrs      = "sched.cell_errors"  // cells that returned an error
	MInjections    = "sched.injections"   // injections attributed to completed cells
	MCellWallUS    = "sched.cell_wall_us" // summed cell wall-clock, µs
	MSchedRetries  = "sched.retries"      // cell attempts repeated after a transient failure
	MSchedTimeouts = "sched.timeouts"     // cells canceled by the per-cell watchdog

	// Build-cache adapters (supersede harness.CacheStats).
	MInstances    = "cache.instances"     // benchmark instantiations performed
	MBuildMisses  = "cache.build_misses"  // unique technique builds
	MBuildHits    = "cache.build_hits"    // builds answered from cache
	MGoldenMisses = "cache.golden_misses" // unique golden runs
	MGoldenHits   = "cache.golden_hits"   // golden runs answered from cache

	// Campaign-level, reported by internal/fi.
	MCampaigns     = "fi.campaigns"   // campaigns executed
	MPlans         = "fi.plans"       // fault plans executed
	MOutcomePrefix = "fi.outcome."    // + benign|sdc|detected|crash|hang
	MEarlyStops    = "fi.early_stops" // campaigns ended early by the CI-width rule
	// MDetectLatencyPrefix + "<unit>.<outcome>" (unit "cycles" for asm
	// campaigns, "insts" for IR) is the detection-latency histogram for
	// that outcome class: injection → terminal event, bucketed on
	// fi.LatencyBuckets.
	MDetectLatencyPrefix = "fi.detect_latency."
	MCkptCampaigns       = "ckpt.campaigns"      // campaigns with checkpointing on
	MCkptSnapshots       = "ckpt.snapshots"      // snapshots recorded
	MCkptBytes           = "ckpt.snapshot_bytes" // dirtied bytes captured
	MCkptRestores        = "ckpt.restores"       // plans resumed from a snapshot
	MCkptColdStarts      = "ckpt.cold_starts"    // plans run from scratch
	MCkptSkippedInsts    = "ckpt.skipped_insts"  // dynamic instructions fast-forwarded
	HCellWallMS          = "sched.cell_wall_ms"  // histogram of cell wall-clock, ms

	// Static pruning (internal/prune driven by fi.Campaign.Prune).
	MPrunedCampaigns = "fi.pruned_campaigns" // campaigns run in a prune mode
	MPrunedPlans     = "fi.pruned_plans"     // plans answered statically, not executed
	MPrunedDead      = "fi.pruned_dead"      // ... of which dead (liveness)
	MPrunedMasked    = "fi.pruned_masked"    // ... of which masked (and/shift/partial write)
	MPrunedDedup     = "fi.pruned_dedup"     // ... of which deduplicated onto a class representative
	MWidthFallbacks  = "fi.width_fallbacks"  // sites whose recorded width was missing/zero

	// Dispatch-tier counters, reported by internal/fi from the machines a
	// campaign executed on (golden template plus per-worker clones).
	MBlocksEntered = "machine.blocks_entered" // basic blocks dispatched by the block loop
	MFusedUops     = "machine.fused_uops"     // fused superinstructions executed
	// MFusionPrefix + a pair name (e.g. "vpxor+vptest+jcc") counts that
	// fused pattern's dynamic executions; -dump-fusion renders the top N.
	MFusionPrefix = "machine.fusion."

	// Compositional campaigns (internal/fi driven by fi.Campaign.Compose,
	// section-table cache in internal/compose).
	MComposedCampaigns = "fi.composed_campaigns" // campaigns run in a compose mode
	MComposedPlans     = "fi.composed_plans"     // plans resolved at a section boundary
	MComposedSections  = "fi.composed_sections"  // sections measured or served
	MComposedFallbacks = "fi.composed_fallbacks" // plans run end-to-end (ambiguous boundary)

	MComposeSectionHits   = "compose.cache_section_hits"   // section tables answered from cache
	MComposeSectionMisses = "compose.cache_section_misses" // section tables measured fresh
	MComposePlansServed   = "compose.cache_plans_served"   // plans answered from cached tables

	// Durable-campaign journal (written by internal/fi and the CLIs).
	MJournalRecords      = "journal.records"       // records appended this process
	MJournalSyncs        = "journal.syncs"         // fsync batches flushed
	MJournalSkippedPlans = "journal.skipped_plans" // plans answered from a resumed journal
	MJournalSkippedCells = "journal.skipped_cells" // whole campaigns answered from a cell record
)

// CellWallBuckets are the HCellWallMS bucket bounds (milliseconds).
var CellWallBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 30000, 60000}
