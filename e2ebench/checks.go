package main

import (
	"fmt"
	"reflect"

	"ferrum/internal/fi"
	"ferrum/internal/harness"
)

// The checks below are invariants, never stored digests: they hold for any
// seed, sample count or hang budget, so a change that legitimately moves
// the tables still passes them, and a silently wrong result does not.

// checker tallies the checked units of a run (campaign cells, rendered
// tables, journals) and the ones that failed a check. failed/attempted is
// the workload's fail rate.
type checker struct {
	attempted, failed int
	msgs              []string
}

// maxMsgs bounds the failure messages kept for stderr.
const maxMsgs = 20

// unit records one checked unit; a non-nil err marks it failed.
func (c *checker) unit(err error) {
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if len(c.msgs) < maxMsgs {
		c.msgs = append(c.msgs, err.Error())
	}
}

// allowedSDCs is how many SDCs a FERRUM or hybrid-EDDI cell of n plans may
// show and still match the paper's 100% coverage claim: one per thousand
// plans, rounded up, which the paper's 1000-plan cells cannot tell from
// zero. The allowance is not slack for a broken pass (raw SDC rates are
// 12-49%): FERRUM on particlefilter has a real SDC path at about 3 per
// 100,000 plans, at every input seed tried, so "zero" fails some seeds.
func allowedSDCs(n int) int { return (n + 999) / 1000 }

// checkResult verifies one campaign cell: its outcome counts add up to the
// planned sample budget, a FERRUM or hybrid-EDDI cell keeps full SDC
// coverage, and a composed cell's ledger is exact (Composed == Sections +
// Fallbacks == Samples).
func checkResult(name string, tech harness.Technique, res fi.Result, samples int) error {
	sum := 0
	for _, n := range res.Counts {
		sum += n
	}
	if sum != res.Samples || res.Samples != samples {
		return fmt.Errorf("%s: outcome counts sum to %d over %d samples, want %d", name, sum, res.Samples, samples)
	}
	if sdc := res.Counts[fi.SDC]; (tech == harness.Ferrum || tech == harness.Hybrid) && sdc > allowedSDCs(samples) {
		return fmt.Errorf("%s: %d SDCs in %d plans under %s, full coverage allows %d",
			name, sdc, samples, tech, allowedSDCs(samples))
	}
	if cs := res.Composed; cs.Enabled && (cs.Composed != cs.Sections+cs.Fallbacks || cs.Composed != res.Samples) {
		return fmt.Errorf("%s: composed ledger %d != %d sections + %d fallbacks (samples %d)",
			name, cs.Composed, cs.Sections, cs.Fallbacks, res.Samples)
	}
	return nil
}

// checkWarm verifies a warm composed re-run against the cold pass that
// filled the section cache: it executed no plan, and apart from those
// execution counters its Result is the cold one.
func checkWarm(name string, cold, warm fi.Result) error {
	if ck := warm.Checkpoint; ck.Restores != 0 || ck.ColdStarts != 0 {
		return fmt.Errorf("%s: warm re-run executed %d plans (%d restores, %d cold starts)",
			name, ck.Restores+ck.ColdStarts, ck.Restores, ck.ColdStarts)
	}
	cold.Checkpoint.Restores, cold.Checkpoint.ColdStarts, cold.Checkpoint.SkippedInsts = 0, 0, 0
	warm.Checkpoint.SkippedInsts = 0
	if !reflect.DeepEqual(cold, warm) {
		return fmt.Errorf("%s: warm re-run result differs from the cold pass", name)
	}
	return nil
}

// checkJournal verifies a reloaded journal cell: a completed cell record
// whose counts match the campaign's, and one plan record per executed plan.
func checkJournal(key string, st *fi.JournalState, res fi.Result) error {
	cs := st.Cell(key)
	if cs == nil || cs.Result == nil {
		return fmt.Errorf("%s: no completed cell record in the journal", key)
	}
	if cs.Result.Counts != res.Counts || cs.Result.Samples != res.Samples {
		return fmt.Errorf("%s: journaled result differs from the campaign's", key)
	}
	executed := res.Checkpoint.Restores + res.Checkpoint.ColdStarts
	if int64(len(cs.Plans)) != executed {
		return fmt.Errorf("%s: %d plan records for %d executed plans", key, len(cs.Plans), executed)
	}
	return nil
}
