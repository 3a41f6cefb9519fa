package fi

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ferrum/internal/obs"
)

// ErrCampaignCanceled is returned by campaign runners when Campaign.Cancel
// fires before the fault plan completes. Cancellation is cooperative:
// workers finish the batch in hand and stop at the next batch boundary, so
// a canceled campaign returns promptly but never mid-plan.
var ErrCampaignCanceled = errors.New("fi: campaign canceled")

// planRun tracks one campaign's plan execution: the pending plans, which
// plans are done and their records by original plan index.
type planRun struct {
	mu       sync.Mutex
	todo     []plannedFault
	next     int
	cancel   <-chan struct{}
	canceled bool
	done     []bool
	recs     []PlanRecord
}

// PlanRecord is one executed fault plan's result, the unit a campaign
// worker returns, the journal stores and resume replays: the classified
// outcome, the dynamic site the fault hit, and the fault's detection
// latency — the distance from injection to the terminal event, in engine
// units (machine cycles for asm, retired instructions for IR). HasLat is
// false when the fault was never applied (the run should always reach its
// sampled site, but a missing injection must not masquerade as a
// zero-latency detection).
type PlanRecord struct {
	Site    uint64
	Lat     float64
	Outcome Outcome
	HasLat  bool
	// Fallback marks a composed-campaign plan that could not be answered
	// at its section boundary and ran end-to-end instead (the soundness
	// fallback). Always false outside compose mode.
	Fallback bool
}

// batchRunner runs one batch of plans in order on a worker's engine clone,
// handing each plan's record to done as it completes.
type batchRunner func(batch []plannedFault, done func(plannedFault, PlanRecord))

// grab hands out the next batch of pending plans, or nil when the run is
// exhausted or canceled.
func (pr *planRun) grab(nb int) []plannedFault {
	if pr.cancel != nil {
		select {
		case <-pr.cancel:
			pr.mu.Lock()
			pr.canceled = true
			pr.mu.Unlock()
			return nil
		default:
		}
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.canceled || pr.next >= len(pr.todo) {
		return nil
	}
	end := pr.next + nb
	if end > len(pr.todo) {
		end = len(pr.todo)
	}
	batch := pr.todo[pr.next:end]
	pr.next = end
	return batch
}

// record stores one executed plan's result and reports whether the plan
// still counts toward the campaign — false once the run is canceled.
// Workers finishing their in-hand batch after a cancel get false and must
// not journal the plan: the canceled campaign returns no result, so
// journaling it would leave the journal with plan records that no result
// (and no fi.* counter) accounts for.
func (pr *planRun) record(idx int, r PlanRecord) bool {
	if pr.cancel != nil {
		// Re-check cancellation here, not only in grab(): a batch in hand
		// when Cancel fires still runs to the batch boundary, and its
		// remaining plans must be discarded, not journaled.
		select {
		case <-pr.cancel:
			pr.mu.Lock()
			pr.canceled = true
			pr.mu.Unlock()
		default:
		}
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.canceled || pr.done[idx] {
		return false
	}
	pr.setLocked(idx, r)
	return true
}

// setLocked stores plan idx's result.
func (pr *planRun) setLocked(idx int, r PlanRecord) {
	pr.done[idx] = true
	pr.recs[idx] = r
}

// finish returns every plan's record once all are done, and otherwise
// reports the cancellation that left plans pending.
func (pr *planRun) finish() ([]PlanRecord, error) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	for _, done := range pr.done {
		if !done {
			return nil, ErrCampaignCanceled
		}
	}
	return pr.recs, nil
}

// journalPlan appends one completed plan's record to the campaign's
// journal, if any.
func (c Campaign) journalPlan(p plannedFault, r PlanRecord) {
	if c.Journal != nil && c.Key != "" {
		c.Journal.Plan(c.Key, p.idx, r)
	}
}

// journalCell appends the completed campaign's cell record, if journaling.
func (c Campaign) journalCell(res Result) {
	if c.Journal != nil && c.Key != "" {
		c.Journal.Cell(c.Key, res)
	}
}

// journalErr surfaces a latched journal write failure at the campaign
// boundary. Journal.append latches the first error and drops every later
// record; without this check a full disk silently yields a truncated
// journal that -resume would happily treat as valid, so a journaled
// campaign whose journal broke must fail, not succeed with quiet data loss.
func (c Campaign) journalErr() error {
	if c.Journal == nil || c.Key == "" {
		return nil
	}
	if err := c.Journal.Err(); err != nil {
		return fmt.Errorf("fi: campaign %q: journal write failed: %w", c.Key, err)
	}
	return nil
}

// runPlans executes the fault plan with the campaign's worker pool: prior
// (journal-replayed) outcomes are prefilled without running anything, plans
// answered by the compose section cache are prefilled AND journaled (the
// journal must stay complete even when nothing executed), each freshly
// executed plan is journaled, and cancellation is honoured at batch
// boundaries. plans may be in any order (the checkpointing path sorts them
// by site); outcome bookkeeping is always by the plan's generation index,
// so results are independent of both ordering and worker count. Worker and
// cache records get their Site stamped from the plan here. Workers take
// the pending plans in fixed batches of 16, in order.
func runPlans(c Campaign, plans []plannedFault,
	newWorker func() batchRunner,
	cached map[int]PlanRecord) ([]PlanRecord, error) {
	n := len(plans)
	pr := &planRun{
		cancel: c.Cancel,
		done:   make([]bool, n),
		recs:   make([]PlanRecord, n),
	}
	prior := c.Prior
	prefilled, replayed := 0, 0
	if (prior != nil && len(prior.Plans) > 0) || len(cached) > 0 {
		for _, p := range plans {
			if prior != nil && p.idx < n {
				if r, ok := prior.Plans[p.idx]; ok {
					pr.setLocked(p.idx, r)
					prefilled++
					replayed++
					continue
				}
			}
			if r, ok := cached[p.idx]; ok && p.idx < n {
				r.Site = p.site
				pr.setLocked(p.idx, r)
				c.journalPlan(p, r)
				prefilled++
				continue
			}
			pr.todo = append(pr.todo, p)
		}
	} else {
		pr.todo = plans
	}
	if replayed > 0 {
		c.Obs.Counter(obs.MJournalSkippedPlans).Add(int64(replayed))
	}
	var done int64
	report := func(k int) {
		if c.Progress != nil && k > 0 {
			c.Progress(int(atomic.AddInt64(&done, int64(k))))
		}
	}
	report(prefilled)

	record := func(p plannedFault, r PlanRecord) {
		r.Site = p.site
		if pr.record(p.idx, r) {
			c.journalPlan(p, r)
		}
	}

	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pr.todo) {
		workers = len(pr.todo)
	}
	work := func() {
		w := newWorker()
		for batch := pr.grab(16); batch != nil; batch = pr.grab(16) {
			w(batch, record)
			report(len(batch))
		}
	}
	if workers <= 1 {
		if len(pr.todo) > 0 {
			work()
		}
		return pr.finish()
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return pr.finish()
}
