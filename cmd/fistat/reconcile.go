package main

import (
	"fmt"
	"io"
	"math"
	"os"

	"ferrum/internal/fi"
	"ferrum/internal/obs"
)

// runReconcile cross-checks a saved /metrics scrape against the journal's
// own totals. Both derive from the same per-cell records — the campaign
// published its counters from the identical Result the cell record froze —
// so every comparison must hold exactly: outcome counters count for count,
// latency histograms bucket for bucket. Any difference means a surface
// drifted and is a hard error.
func runReconcile(out io.Writer, st *fi.JournalState, metricsPath string) error {
	f, err := os.Open(metricsPath)
	if err != nil {
		return err
	}
	scrape, perr := obs.ParsePrometheus(f)
	f.Close()
	if perr != nil {
		return fmt.Errorf("reconcile: %s: %w", metricsPath, perr)
	}

	complete, partial := st.Cells()
	if partial > 0 {
		return fmt.Errorf("reconcile: journal has %d partial cells; a mid-run scrape cannot reconcile — finish the run first", partial)
	}

	// Journal-side totals: sum of every complete cell's frozen Result.
	var plans int64
	var outcomes [numOutcomes]int64
	latByUnit := map[string]*fi.LatencySummary{}
	for _, key := range st.Keys() {
		res := st.Cell(key).Result
		plans += int64(res.Samples)
		for i := range allOutcomes {
			outcomes[i] += int64(res.Counts[i])
		}
		if res.Latency.N() > 0 {
			ls := latByUnit[res.Latency.Unit]
			if ls == nil {
				ls = &fi.LatencySummary{}
				latByUnit[res.Latency.Unit] = ls
			}
			ls.Merge(res.Latency)
		}
	}

	mismatches := 0
	check := func(metric string, got, want int64) {
		if got != want {
			mismatches++
			fmt.Fprintf(out, "reconcile: %s = %d in scrape, %d in journal\n", metric, got, want)
		}
	}
	check("fi_campaigns", scrape.Counters["fi_campaigns"], int64(complete))
	check("fi_plans", scrape.Counters["fi_plans"], plans)
	for i, o := range allOutcomes {
		check("fi_outcome_"+o.String(), scrape.Counters["fi_outcome_"+o.String()], outcomes[i])
	}

	// Journal record accounting must be exact for a fresh uninterrupted run:
	// one meta record, one plan record per executed plan, one cell record per
	// campaign. Anything above that means discarded work leaked into the
	// journal. The identity only holds when nothing was replayed: resume
	// journals no new records for skipped work.
	if recs, ok := scrape.Counters["journal_records"]; ok &&
		scrape.Counters["journal_skipped_plans"] == 0 &&
		scrape.Counters["journal_skipped_cells"] == 0 {
		check("journal_records", recs, 1+plans+int64(complete))
	}

	latHists := 0
	for unit, ls := range latByUnit {
		for _, o := range allOutcomes {
			h := ls.Hist(o)
			name := obs.SanitizeMetricName(obs.MDetectLatencyPrefix + unit + "." + o.String())
			sh, ok := scrape.Hists[name]
			if h.N == 0 {
				if ok && sh.Count != 0 {
					mismatches++
					fmt.Fprintf(out, "reconcile: %s has %d samples in scrape, none in journal\n", name, sh.Count)
				}
				continue
			}
			latHists++
			if !ok {
				mismatches++
				fmt.Fprintf(out, "reconcile: %s missing from scrape (journal has %d samples)\n", name, h.N)
				continue
			}
			check(name+"_count", sh.Count, h.N)
			if len(sh.Counts) != len(h.Counts) {
				mismatches++
				fmt.Fprintf(out, "reconcile: %s has %d buckets in scrape, %d in journal\n", name, len(sh.Counts), len(h.Counts))
				continue
			}
			for b := range h.Counts {
				if sh.Counts[b] != h.Counts[b] {
					mismatches++
					le := "+Inf"
					if b < len(fi.LatencyBuckets) {
						le = fmt.Sprintf("%g", fi.LatencyBuckets[b])
					}
					fmt.Fprintf(out, "reconcile: %s bucket le=%s = %d in scrape, %d in journal\n",
						name, le, sh.Counts[b], h.Counts[b])
				}
			}
			// Sums accumulate float64 in different orders on the two
			// surfaces; require agreement to relative 1e-9, not bit equality.
			if diff := math.Abs(sh.Sum - h.Sum); diff > 1e-9*math.Max(1, math.Abs(h.Sum)) {
				mismatches++
				fmt.Fprintf(out, "reconcile: %s_sum = %g in scrape, %g in journal\n", name, sh.Sum, h.Sum)
			}
		}
	}

	if mismatches > 0 {
		return fmt.Errorf("reconcile: %d mismatches between %s and the journal", mismatches, metricsPath)
	}
	fmt.Fprintf(out, "reconcile: OK — %d campaigns, %d plans, %d latency histograms match the scrape exactly\n",
		complete, plans, latHists)
	return nil
}
