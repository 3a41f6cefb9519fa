// Package fiserve is the sharded campaign service: a coordinator that
// partitions a fault-injection campaign's deterministic plan space into
// round-robin shards (fi.ShardSpec), leases the shards to worker processes
// over a minimal JSON/NDJSON HTTP API, owns every shard's durable journal,
// and merges the shard journals and results back into one table that is
// byte-identical to a single-process run at any worker count.
//
// The wire surface (all JSON unless noted):
//
//	POST /api/submit     {tenant, spec}            → 202 {id} | 429
//	GET  /api/campaigns/{id}                       → CampaignStatus
//	POST /api/lease      {worker}                  → {lease|null, drained}
//	POST /api/records?campaign=&shard=&epoch=      NDJSON body → 204 | 409
//	POST /api/heartbeat  {campaign, shard, epoch, done}        → 204 | 409
//	POST /api/complete   {campaign, shard, epoch, result, snapshot} → 204 | 409
//	POST /api/release    {campaign, shard, epoch, error}       → 204 | 409
//	GET  /metrics, /progress, /debug/pprof         (internal/obs surface)
//
// Every shard lease carries an epoch. A worker that stops heartbeating loses
// its lease after the watchdog timeout: the shard's epoch is bumped and the
// shard re-leased, so the dead worker's late uploads are rejected with 409
// instead of corrupting the journal. The new lease ships the shard journal's
// synced prefix, and the next worker resumes from it — re-running only the
// plans the journal never recorded.
package fiserve

import (
	"time"

	"ferrum/internal/fi"
	"ferrum/internal/harness"
	"ferrum/internal/obs"
)

// SpecKey is the campaign journal key for a spec, fidi's "<cell>/<technique>/<level>"
// convention, so a fiserve journal and a fidi journal of the same campaign
// reconcile with the same tooling.
func SpecKey(spec harness.CampaignSpec) string {
	return spec.Bench + "/" + string(spec.Technique) + "/" + spec.Level
}

// SpecMeta is the journal meta a spec's campaign records under, without
// shard fields: each shard journal's meta derives from its shard's campaign
// instead, and the merged journal carries exactly this meta. A
// single-process reference run journaling under SpecMeta produces a
// canonical journal byte-identical to the service's merged one.
func SpecMeta(spec harness.CampaignSpec) fi.JournalMeta {
	return shardMeta(spec, fi.ShardSpec{})
}

// shardMeta is the journal meta of one shard of a spec's campaign.
func shardMeta(spec harness.CampaignSpec, shard fi.ShardSpec) fi.JournalMeta {
	return spec.Meta("fiserve", fi.Campaign{Shard: shard})
}

// SubmitRequest asks the coordinator to admit one campaign.
type SubmitRequest struct {
	Tenant string               `json:"tenant"`
	Spec   harness.CampaignSpec `json:"spec"`
}

// SubmitResponse acknowledges an admitted campaign.
type SubmitResponse struct {
	ID string `json:"id"`
}

// Campaign states, in lifecycle order.
const (
	StateRunning = "running" // admitted; shards pending, leased or done
	StateDone    = "done"    // all shards complete, journals merged
	StateFailed  = "failed"  // merge failed; Error says why
)

// Shard states.
const (
	ShardPending = "pending" // waiting for a worker
	ShardLeased  = "leased"  // a worker holds the current epoch
	ShardDone    = "done"    // result received
)

// ShardStatus is one shard's public state.
type ShardStatus struct {
	Index  int    `json:"index"`
	State  string `json:"state"`
	Epoch  int    `json:"epoch"`
	Done   int    `json:"done,omitempty"`   // plans completed (last heartbeat)
	Worker string `json:"worker,omitempty"` // current or last lease holder
}

// CampaignStatus is the public view of one campaign.
type CampaignStatus struct {
	ID     string               `json:"id"`
	Tenant string               `json:"tenant"`
	Spec   harness.CampaignSpec `json:"spec"`
	State  string               `json:"state"`
	Shards []ShardStatus        `json:"shards"`
	Error  string               `json:"error,omitempty"`
	// Result and Table are set once State is done: the merged campaign
	// result and its rendered table (harness.RenderCampaign), byte-identical
	// to a single-process run's.
	Result *fi.Result `json:"result,omitempty"`
	Table  string     `json:"table,omitempty"`
	// MergedJournal is the coordinator-local path of the merged canonical
	// journal, for fistat and reconciliation.
	MergedJournal string `json:"merged_journal,omitempty"`
}

// Lease hands one shard to one worker.
type Lease struct {
	Campaign   string               `json:"campaign"`
	Shard      int                  `json:"shard"`
	ShardCount int                  `json:"shard_count"`
	Epoch      int                  `json:"epoch"`
	Spec       harness.CampaignSpec `json:"spec"`
	Key        string               `json:"key"`
	Meta       fi.JournalMeta       `json:"meta"`
	// LeaseTimeout is the coordinator's watchdog deadline; the worker
	// heartbeats a few times per period so a lease is only lost when the
	// worker is actually gone, not when one plan runs long.
	LeaseTimeout time.Duration `json:"lease_timeout"`
	// Prior is the shard journal's synced prefix (NDJSON) from a previous
	// lease that died; empty on a fresh shard. The worker replays it and
	// appends only the missing plans.
	Prior []byte `json:"prior,omitempty"`
}

// LeaseRequest asks for work; Worker names the caller in statuses and logs.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse carries a lease, or reports why there is none.
type LeaseResponse struct {
	Lease *Lease `json:"lease"`
	// Drained reports that the coordinator has no unfinished campaigns at
	// all — polling workers may exit.
	Drained bool `json:"drained"`
}

// HeartbeatRequest renews a lease and reports progress.
type HeartbeatRequest struct {
	Campaign string `json:"campaign"`
	Shard    int    `json:"shard"`
	Epoch    int    `json:"epoch"`
	Done     int    `json:"done"`
}

// CompleteRequest delivers a finished shard: the shard's campaign Result and
// the worker's metrics snapshot (registry names, unsanitised). The
// coordinator strips fi.* and journal.* from the snapshot before merging —
// campaign outcomes are replayed exactly once from the merged Result, and
// the merged journal's record count is the coordinator's own accounting.
type CompleteRequest struct {
	Campaign string       `json:"campaign"`
	Shard    int          `json:"shard"`
	Epoch    int          `json:"epoch"`
	Result   fi.Result    `json:"result"`
	Snapshot obs.Snapshot `json:"snapshot"`
}

// ReleaseRequest returns a lease the worker cannot finish (build failure,
// journal write error), with the error for the campaign log. The shard goes
// back to pending immediately instead of waiting out the watchdog.
type ReleaseRequest struct {
	Campaign string `json:"campaign"`
	Shard    int    `json:"shard"`
	Epoch    int    `json:"epoch"`
	Error    string `json:"error"`
}
