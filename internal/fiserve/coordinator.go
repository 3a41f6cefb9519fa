package fiserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"ferrum/internal/fi"
	"ferrum/internal/harness"
	"ferrum/internal/obs"
)

// Coordinator-side metric names, alongside the standard fi.*/journal.*
// namespaces the merge re-publishes.
const (
	mCampaignsAdmitted = "serve.campaigns_admitted" // campaigns past admission
	mCampaignsMerged   = "serve.campaigns_merged"   // campaigns merged to done
	mRejects           = "serve.rejects"            // 429s (queue or quota)
	mLeases            = "serve.leases"             // shard leases granted
	mReleases          = "serve.releases"           // leases lost (watchdog or voluntary)
	mStaleDrops        = "serve.stale_drops"        // uploads rejected for a stale epoch
	mRecordPosts       = "serve.record_posts"       // journal chunks accepted
	gUnfinished        = "serve.unfinished"         // campaigns not yet done/failed
)

// Admission errors; the HTTP layer maps both to 429.
var (
	ErrQueueFull   = errors.New("fiserve: submission queue full")
	ErrTenantQuota = errors.New("fiserve: tenant quota exhausted")
)

// Config tunes a coordinator.
type Config struct {
	// Addr is the listen address (host:port; ":0" picks a free port).
	Addr string
	// Dir is where shard journals and merged journals live, one
	// subdirectory per campaign.
	Dir string
	// Shards is how many shards each campaign's plan space is split into
	// (default 2; clamped to the campaign's sample count).
	Shards int
	// LeaseTimeout is the watchdog: a leased shard with no upload or
	// heartbeat for this long loses its lease and is re-leased (default 30s).
	LeaseTimeout time.Duration
	// QueueMax bounds unfinished campaigns across all tenants; submissions
	// past it get 429 (default 16).
	QueueMax int
	// TenantQuota bounds unfinished campaigns per tenant — the per-tenant
	// admission tokens (default QueueMax).
	TenantQuota int
}

func (cfg Config) withDefaults() Config {
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 30 * time.Second
	}
	if cfg.QueueMax <= 0 {
		cfg.QueueMax = 16
	}
	if cfg.TenantQuota <= 0 {
		cfg.TenantQuota = cfg.QueueMax
	}
	return cfg
}

type shard struct {
	index    int
	state    string // ShardPending | ShardLeased | ShardDone
	epoch    int
	worker   string
	lastBeat time.Time
	done     int
	fails    int // voluntary releases (worker-reported errors)
	path     string
	result   *fi.Result
}

// maxShardFails bounds deterministic failures: a shard whose workers keep
// reporting errors (a build that cannot succeed) fails the whole campaign
// instead of bouncing between lease and release forever. Watchdog releases
// (worker death) don't count — death is environmental, not deterministic.
const maxShardFails = 3

type campaign struct {
	id     string
	tenant string
	spec   harness.CampaignSpec
	key    string
	state  string
	shards []*shard
	errMsg string
	result *fi.Result
	table  string
	merged string // merged canonical journal path
}

// Coordinator owns campaign admission, shard leasing, durable shard
// journals, and the merge. One HTTP server carries both the service API and
// the standard observability surface.
type Coordinator struct {
	cfg Config
	ob  *obs.Observer
	hub *obs.Hub
	srv *obs.Server

	mu        sync.Mutex
	seq       int
	campaigns map[string]*campaign
	order     []string // submission order, for fair leasing
	workerAgg obs.Snapshot
	stop      chan struct{}
	wg        sync.WaitGroup
}

// Start launches a coordinator: listener bound, watchdog running.
func Start(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fiserve: coordinator needs a journal directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fiserve: %w", err)
	}
	co := &Coordinator{
		cfg:       cfg,
		ob:        obs.New(),
		hub:       obs.NewHub(),
		campaigns: map[string]*campaign{},
		stop:      make(chan struct{}),
	}
	srv, err := obs.StartServerMux(cfg.Addr, co.snapshot, co.hub, co.routes)
	if err != nil {
		return nil, err
	}
	co.srv = srv
	co.wg.Add(1)
	go co.watchdog()
	return co, nil
}

// Addr is the bound listen address.
func (co *Coordinator) Addr() string { return co.srv.Addr() }

// Close stops the watchdog and the HTTP server.
func (co *Coordinator) Close() error {
	close(co.stop)
	co.wg.Wait()
	return co.srv.Close()
}

// snapshot is the /metrics surface: the coordinator's own registry (merged
// campaign results replayed once, merged-journal record accounting) plus the
// workers' non-fi.*, non-journal.* counters.
func (co *Coordinator) snapshot() obs.Snapshot {
	s := co.ob.Reg.Snapshot()
	co.mu.Lock()
	agg := co.workerAgg
	co.mu.Unlock()
	return s.Merge(agg)
}

// event broadcasts one NDJSON progress line through the hub.
func (co *Coordinator) event(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	co.hub.Write(append(b, '\n'))
}

// Submit admits one campaign, or rejects it with ErrQueueFull /
// ErrTenantQuota (HTTP 429) when the bounded queue or the tenant's token
// quota is exhausted.
func (co *Coordinator) Submit(tenant string, spec harness.CampaignSpec) (string, error) {
	if spec.Samples <= 0 {
		return "", fmt.Errorf("fiserve: spec needs a positive sample count")
	}
	if err := spec.Check(fi.Campaign{}); err != nil {
		return "", fmt.Errorf("fiserve: %w", err)
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	unfinished, byTenant := 0, 0
	for _, c := range co.campaigns {
		if c.state == StateRunning {
			unfinished++
			if c.tenant == tenant {
				byTenant++
			}
		}
	}
	if unfinished >= co.cfg.QueueMax {
		co.ob.Counter(mRejects).Add(1)
		return "", fmt.Errorf("%w: %d campaigns in flight (max %d)", ErrQueueFull, unfinished, co.cfg.QueueMax)
	}
	if byTenant >= co.cfg.TenantQuota {
		co.ob.Counter(mRejects).Add(1)
		return "", fmt.Errorf("%w: tenant %q has %d campaigns in flight (max %d)",
			ErrTenantQuota, tenant, byTenant, co.cfg.TenantQuota)
	}
	co.seq++
	id := fmt.Sprintf("c%03d-%s-%s-%s", co.seq, spec.Bench, spec.Technique, spec.Level)
	n := co.cfg.Shards
	if n > spec.Samples {
		n = spec.Samples
	}
	cdir := filepath.Join(co.cfg.Dir, id)
	if err := os.MkdirAll(cdir, 0o755); err != nil {
		return "", fmt.Errorf("fiserve: %w", err)
	}
	c := &campaign{
		id: id, tenant: tenant, spec: spec, key: SpecKey(spec), state: StateRunning,
	}
	for i := 0; i < n; i++ {
		c.shards = append(c.shards, &shard{
			index: i, state: ShardPending,
			path: filepath.Join(cdir, fmt.Sprintf("shard-%d.ndjson", i)),
		})
	}
	co.campaigns[id] = c
	co.order = append(co.order, id)
	co.ob.Counter(mCampaignsAdmitted).Add(1)
	co.ob.Reg.Gauge(gUnfinished).Set(int64(unfinished + 1))
	co.event(map[string]any{"t": "fiserve.submit", "campaign": id, "tenant": tenant, "shards": n})
	return id, nil
}

// Status reports one campaign's public state.
func (co *Coordinator) Status(id string) (CampaignStatus, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	c, ok := co.campaigns[id]
	if !ok {
		return CampaignStatus{}, false
	}
	st := CampaignStatus{
		ID: c.id, Tenant: c.tenant, Spec: c.spec, State: c.state,
		Error: c.errMsg, Result: c.result, Table: c.table, MergedJournal: c.merged,
	}
	for _, s := range c.shards {
		st.Shards = append(st.Shards, ShardStatus{
			Index: s.index, State: s.state, Epoch: s.epoch, Done: s.done, Worker: s.worker,
		})
	}
	return st, true
}

// lease hands the next pending shard (submission order) to a worker. The
// shard's epoch is bumped so any uploads from a previous holder go stale,
// and the lease carries the shard journal's synced prefix for resume.
func (co *Coordinator) lease(worker string) (*Lease, bool, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	drained := true
	for _, id := range co.order {
		c := co.campaigns[id]
		if c.state != StateRunning {
			continue
		}
		drained = false
		for _, s := range c.shards {
			if s.state != ShardPending {
				continue
			}
			prior, err := co.shardPrior(s)
			if err != nil {
				// An unreadable shard journal is a coordinator-side fault;
				// fail the campaign rather than leasing corrupt state.
				co.failCampaignLocked(c, fmt.Sprintf("shard %d journal: %v", s.index, err))
				break
			}
			s.state = ShardLeased
			s.epoch++
			s.worker = worker
			s.lastBeat = time.Now()
			co.ob.Counter(mLeases).Add(1)
			meta := shardMeta(c.spec, fi.ShardSpec{Index: s.index, Count: len(c.shards)})
			co.event(map[string]any{
				"t": "fiserve.lease", "campaign": c.id, "shard": s.index,
				"epoch": s.epoch, "worker": worker, "resumed": len(prior) > 0,
			})
			return &Lease{
				Campaign: c.id, Shard: s.index, ShardCount: len(c.shards),
				Epoch: s.epoch, Spec: c.spec, Key: c.key, Meta: meta, Prior: prior,
				LeaseTimeout: co.cfg.LeaseTimeout,
			}, false, nil
		}
	}
	return nil, drained, nil
}

// shardPrior loads a shard journal's synced prefix for a re-lease,
// truncating any torn tail so the next worker appends on a record boundary.
// A shard never leased before has no file and no prior.
func (co *Coordinator) shardPrior(s *shard) ([]byte, error) {
	data, err := os.ReadFile(s.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, nil
	}
	st, err := fi.LoadJournalData(data, s.path)
	if err != nil {
		return nil, err
	}
	if st.ValidLen() < int64(len(data)) {
		if err := os.Truncate(s.path, st.ValidLen()); err != nil {
			return nil, err
		}
		data = data[:st.ValidLen()]
	}
	return data, nil
}

// resolveShard validates a (campaign, shard, epoch) triple from an upload.
// A stale epoch — the watchdog re-leased the shard — is reported as
// errStale, which the HTTP layer maps to 409.
var errStale = errors.New("fiserve: stale lease epoch")

func (co *Coordinator) resolveShard(id string, idx, epoch int) (*campaign, *shard, error) {
	c := co.campaigns[id]
	if c == nil {
		return nil, nil, fmt.Errorf("fiserve: unknown campaign %q", id)
	}
	if idx < 0 || idx >= len(c.shards) {
		return nil, nil, fmt.Errorf("fiserve: campaign %q has no shard %d", id, idx)
	}
	s := c.shards[idx]
	if s.state != ShardLeased || s.epoch != epoch {
		co.ob.Counter(mStaleDrops).Add(1)
		return nil, nil, fmt.Errorf("%w: shard %d is %s at epoch %d, upload claims epoch %d",
			errStale, idx, s.state, s.epoch, epoch)
	}
	return c, s, nil
}

// appendRecords appends a validated NDJSON chunk to a shard journal, fsynced
// before the 204 goes back — the worker's Journal.Sync contract.
func (co *Coordinator) appendRecords(id string, idx, epoch int, chunk []byte) error {
	if err := fi.ValidateRecords(chunk); err != nil {
		return err
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	_, s, err := co.resolveShard(id, idx, epoch)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(chunk); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	s.lastBeat = time.Now()
	co.ob.Counter(mRecordPosts).Add(1)
	return nil
}

// heartbeat renews a lease and publishes shard progress to the hub.
func (co *Coordinator) heartbeat(hb HeartbeatRequest) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	c, s, err := co.resolveShard(hb.Campaign, hb.Shard, hb.Epoch)
	if err != nil {
		return err
	}
	s.lastBeat = time.Now()
	if hb.Done > s.done {
		s.done = hb.Done
	}
	co.event(map[string]any{
		"t": "fiserve.shard", "campaign": c.id, "shard": s.index,
		"done": s.done, "worker": s.worker,
	})
	return nil
}

// release returns a lease the worker cannot finish; the shard goes back to
// pending with a bumped epoch.
func (co *Coordinator) release(rel ReleaseRequest) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	c, s, err := co.resolveShard(rel.Campaign, rel.Shard, rel.Epoch)
	if err != nil {
		return err
	}
	s.state = ShardPending
	s.epoch++
	s.fails++
	co.ob.Counter(mReleases).Add(1)
	co.event(map[string]any{
		"t": "fiserve.release", "campaign": c.id, "shard": s.index,
		"worker": s.worker, "error": rel.Error,
	})
	if s.fails >= maxShardFails {
		co.failCampaignLocked(c, fmt.Sprintf("shard %d failed %d times, last: %s", s.index, s.fails, rel.Error))
	}
	return nil
}

// complete records a finished shard and, when it was the last one, merges
// the campaign.
func (co *Coordinator) complete(req CompleteRequest) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	c, s, err := co.resolveShard(req.Campaign, req.Shard, req.Epoch)
	if err != nil {
		return err
	}
	res := req.Result
	s.result = &res
	s.state = ShardDone
	s.done = res.Samples
	keep := func(name string) bool {
		return !strings.HasPrefix(name, "fi.") && !strings.HasPrefix(name, "journal.")
	}
	co.workerAgg = co.workerAgg.Merge(obs.FilterSnapshot(req.Snapshot, keep))
	co.event(map[string]any{
		"t": "fiserve.shard_done", "campaign": c.id, "shard": s.index, "samples": res.Samples,
	})
	for _, sh := range c.shards {
		if sh.state != ShardDone {
			return nil
		}
	}
	if err := co.mergeLocked(c); err != nil {
		co.failCampaignLocked(c, err.Error())
	}
	return nil
}

// mergeLocked merges a campaign whose shards are all done: load every shard
// journal, merge states, write the canonical merged journal, account its
// records, replay the merged result into the coordinator's registry exactly
// once, and render the table. Callers hold co.mu.
func (co *Coordinator) mergeLocked(c *campaign) error {
	states := make([]*fi.JournalState, 0, len(c.shards))
	for _, s := range c.shards {
		st, err := fi.LoadJournal(s.path)
		if err != nil {
			return fmt.Errorf("shard %d: %w", s.index, err)
		}
		states = append(states, st)
	}
	merged, err := fi.MergeShardStates(states)
	if err != nil {
		return err
	}
	mc := merged.Cell(c.key)
	if mc == nil || mc.Result == nil {
		return fmt.Errorf("merged journal has no complete cell for %q", c.key)
	}
	// Cross-check the journaled merge against the results the workers
	// POSTed; a difference means a surface drifted.
	posted := make([]fi.Result, len(c.shards))
	for i, s := range c.shards {
		posted[i] = *s.result
	}
	fromPosted, err := fi.MergeShardResults(posted)
	if err != nil {
		return err
	}
	if fromPosted.Samples != mc.Result.Samples || fromPosted.Counts != mc.Result.Counts {
		return fmt.Errorf("posted shard results disagree with journaled ones: %v vs %v",
			fromPosted.Counts, mc.Result.Counts)
	}
	mergedPath := filepath.Join(filepath.Dir(c.shards[0].path), "merged.ndjson")
	f, err := os.Create(mergedPath)
	if err != nil {
		return err
	}
	if err := merged.WriteCanonical(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// The merged journal is the coordinator's artifact; account its records
	// under the standard journal.* names so /metrics reconciles exactly
	// against it (1 meta + per-plan + per-cell).
	records := int64(1)
	for _, key := range merged.Keys() {
		cell := merged.Cell(key)
		records += int64(len(cell.Plans))
		if cell.Result != nil {
			records++
		}
	}
	co.ob.Counter(obs.MJournalRecords).Add(records)
	co.ob.Counter(obs.MJournalSyncs).Add(1)
	fi.ReplayResult(co.ob.Cell(c.id, 0), *mc.Result)
	var table strings.Builder
	harness.RenderCampaign(&table, string(c.spec.Technique), c.spec.Level, *mc.Result)
	c.result = mc.Result
	c.table = table.String()
	c.merged = mergedPath
	c.state = StateDone
	co.ob.Counter(mCampaignsMerged).Add(1)
	co.setUnfinishedLocked()
	co.event(map[string]any{"t": "fiserve.done", "campaign": c.id, "samples": mc.Result.Samples})
	return nil
}

func (co *Coordinator) failCampaignLocked(c *campaign, msg string) {
	c.state = StateFailed
	c.errMsg = msg
	co.setUnfinishedLocked()
	co.event(map[string]any{"t": "fiserve.failed", "campaign": c.id, "error": msg})
}

func (co *Coordinator) setUnfinishedLocked() {
	n := 0
	for _, c := range co.campaigns {
		if c.state == StateRunning {
			n++
		}
	}
	co.ob.Reg.Gauge(gUnfinished).Set(int64(n))
}

// watchdog scans leases; one silent for LeaseTimeout loses its shard, which
// goes back to pending with a bumped epoch so the dead worker's late
// uploads are dropped as stale.
func (co *Coordinator) watchdog() {
	defer co.wg.Done()
	tick := co.cfg.LeaseTimeout / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-co.stop:
			return
		case <-t.C:
		}
		now := time.Now()
		co.mu.Lock()
		for _, id := range co.order {
			c := co.campaigns[id]
			if c.state != StateRunning {
				continue
			}
			for _, s := range c.shards {
				if s.state == ShardLeased && now.Sub(s.lastBeat) > co.cfg.LeaseTimeout {
					s.state = ShardPending
					s.epoch++
					co.ob.Counter(mReleases).Add(1)
					co.event(map[string]any{
						"t": "fiserve.watchdog", "campaign": c.id, "shard": s.index,
						"worker": s.worker,
					})
				}
			}
		}
		co.mu.Unlock()
	}
}

// --- HTTP layer ---

func (co *Coordinator) routes(mux *http.ServeMux) {
	mux.HandleFunc("/api/submit", co.handleSubmit)
	mux.HandleFunc("/api/campaigns/", co.handleStatus)
	mux.HandleFunc("/api/lease", co.handleLease)
	mux.HandleFunc("/api/records", co.handleRecords)
	mux.HandleFunc("/api/heartbeat", co.handleHeartbeat)
	mux.HandleFunc("/api/complete", co.handleComplete)
	mux.HandleFunc("/api/release", co.handleRelease)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// uploadError maps upload failures onto status codes: stale epochs are 409
// (the worker should drop the lease), everything else 400.
func uploadError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, errStale) {
		code = http.StatusConflict
	}
	http.Error(w, err.Error(), code)
}

func (co *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !readJSON(w, r, &req) {
		return
	}
	id, err := co.Submit(req.Tenant, req.Spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrTenantQuota) {
			code = http.StatusTooManyRequests
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: id})
}

func (co *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/api/campaigns/")
	st, ok := co.Status(id)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown campaign %q", id), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (co *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	l, drained, err := co.lease(req.Worker)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, LeaseResponse{Lease: l, Drained: drained})
}

func (co *Coordinator) handleRecords(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	idx, err1 := strconv.Atoi(q.Get("shard"))
	epoch, err2 := strconv.Atoi(q.Get("epoch"))
	if q.Get("campaign") == "" || err1 != nil || err2 != nil {
		http.Error(w, "need campaign, shard and epoch query parameters", http.StatusBadRequest)
		return
	}
	// Read the whole chunk before touching the shard file: a worker that
	// dies mid-upload errors the read and nothing is appended, keeping the
	// journal record-aligned.
	chunk, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, "short upload: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := co.appendRecords(q.Get("campaign"), idx, epoch, chunk); err != nil {
		uploadError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (co *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb HeartbeatRequest
	if !readJSON(w, r, &hb) {
		return
	}
	if err := co.heartbeat(hb); err != nil {
		uploadError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (co *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := co.complete(req); err != nil {
		uploadError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (co *Coordinator) handleRelease(w http.ResponseWriter, r *http.Request) {
	var rel ReleaseRequest
	if !readJSON(w, r, &rel) {
		return
	}
	if err := co.release(rel); err != nil {
		uploadError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
