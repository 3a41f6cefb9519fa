package fiserve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ferrum/internal/fi"
	"ferrum/internal/harness"
	"ferrum/internal/obs"
)

func testSpec(bench string, tech harness.Technique, samples int) harness.CampaignSpec {
	return harness.CampaignSpec{
		Bench: bench, Technique: tech, Level: "asm", Samples: samples, Seed: 7,
	}
}

// singleProcess runs the spec's campaign locally — the reference every
// sharded topology must match byte for byte — and returns the rendered table
// and the canonical journal bytes.
func singleProcess(t *testing.T, spec harness.CampaignSpec) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "single.ndjson")
	j, err := fi.CreateJournal(path, SpecMeta(spec))
	if err != nil {
		t.Fatalf("create journal: %v", err)
	}
	res, err := harness.RunSpec(spec, fi.Campaign{Workers: 4, Journal: j, Key: SpecKey(spec)})
	if err != nil {
		t.Fatalf("single-process run: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}
	st, err := fi.LoadJournal(path)
	if err != nil {
		t.Fatalf("load journal: %v", err)
	}
	var canon bytes.Buffer
	if err := st.WriteCanonical(&canon); err != nil {
		t.Fatalf("canonicalise journal: %v", err)
	}
	var table strings.Builder
	harness.RenderCampaign(&table, string(spec.Technique), spec.Level, res)
	return table.String(), canon.Bytes()
}

// startWorkers launches n pollers against the coordinator; the returned stop
// function shuts them down and collects their exit errors.
func startWorkers(t *testing.T, base string, workers []*Worker) (stop func() []error) {
	t.Helper()
	ch := make(chan struct{})
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		w.Base = base
		if w.Name == "" {
			w.Name = fmt.Sprintf("w%d", i)
		}
		if w.Poll <= 0 {
			w.Poll = 10 * time.Millisecond
		}
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			errs[i] = w.Run(ch)
		}(i, w)
	}
	var once sync.Once
	return func() []error {
		once.Do(func() { close(ch) })
		wg.Wait()
		return errs
	}
}

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return b
}

// TestServiceEquivalence is the shard-merge equivalence suite: a coordinator
// plus {2,4} workers on {bfs,lud}×{raw,ferrum} produces a result table and a
// merged canonical journal byte-identical to the single-process run's.
func TestServiceEquivalence(t *testing.T) {
	cases := []struct {
		spec            harness.CampaignSpec
		shards, workers int
	}{
		{testSpec("bfs", harness.Raw, 60), 2, 2},
		{testSpec("bfs", harness.Ferrum, 60), 4, 4},
		{testSpec("lud", harness.Raw, 60), 4, 2},
		{testSpec("lud", harness.Ferrum, 60), 2, 4},
	}
	for _, tc := range cases {
		tc := tc
		name := fmt.Sprintf("%s-%s-s%d-w%d", tc.spec.Bench, tc.spec.Technique, tc.shards, tc.workers)
		t.Run(name, func(t *testing.T) {
			wantTable, wantJournal := singleProcess(t, tc.spec)

			co, err := Start(Config{Addr: "127.0.0.1:0", Dir: t.TempDir(), Shards: tc.shards})
			if err != nil {
				t.Fatalf("start coordinator: %v", err)
			}
			defer co.Close()
			ws := make([]*Worker, tc.workers)
			for i := range ws {
				ws[i] = &Worker{Workers: 2}
			}
			stop := startWorkers(t, "http://"+co.Addr(), ws)
			defer stop()

			cl := &Client{Base: "http://" + co.Addr(), Tenant: "equiv"}
			st, err := cl.Run(tc.spec)
			if err != nil {
				t.Fatalf("service run: %v", err)
			}
			for _, werr := range stop() {
				if werr != nil {
					t.Errorf("worker exit: %v", werr)
				}
			}
			if st.Result == nil || st.Result.Samples != tc.spec.Samples {
				t.Fatalf("merged result %+v, want %d samples", st.Result, tc.spec.Samples)
			}
			if len(st.Shards) != tc.shards {
				t.Errorf("campaign ran %d shards, want %d", len(st.Shards), tc.shards)
			}
			if st.Table != wantTable {
				t.Errorf("sharded table differs from single-process:\n--- service\n%s--- single\n%s", st.Table, wantTable)
			}
			if got := mustReadFile(t, st.MergedJournal); !bytes.Equal(got, wantJournal) {
				t.Errorf("merged journal differs from single-process canonical journal (%d vs %d bytes)",
					len(got), len(wantJournal))
			}
		})
	}
}

// TestWorkerDeathResume kills one worker mid-shard (after the meta record and
// one 64-plan batch are durable) and checks that the watchdog re-leases the
// shard, the survivor resumes from the journal prefix, and every output is
// still byte-identical to the single-process run. It also pins the /metrics
// reconciliation identity at the coordinator: fi_plans equals the sample
// count and journal_records equals 1 + plans + cells of the merged journal.
func TestWorkerDeathResume(t *testing.T) {
	spec := testSpec("bfs", harness.Raw, 200) // 100 plans per shard: > one sync batch
	wantTable, wantJournal := singleProcess(t, spec)

	co, err := Start(Config{
		Addr: "127.0.0.1:0", Dir: t.TempDir(), Shards: 2,
		LeaseTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("start coordinator: %v", err)
	}
	defer co.Close()

	// Worker 0 silently dies after two successful uploads (meta + first
	// 64-plan batch); worker 1 is healthy and must finish everything.
	ws := []*Worker{
		{Name: "doomed", Workers: 2, DieAfterSyncs: 2},
		{Name: "survivor", Workers: 2},
	}
	stop := startWorkers(t, "http://"+co.Addr(), ws)
	defer stop()

	cl := &Client{Base: "http://" + co.Addr(), Tenant: "death"}
	st, err := cl.Run(spec)
	if err != nil {
		t.Fatalf("service run: %v", err)
	}
	errs := stop()
	if !errors.Is(errs[0], ErrWorkerDied) {
		t.Errorf("doomed worker exited with %v, want ErrWorkerDied", errs[0])
	}
	if errs[1] != nil {
		t.Errorf("survivor exited with %v", errs[1])
	}

	if st.Table != wantTable {
		t.Errorf("table after death+resume differs from single-process:\n--- service\n%s--- single\n%s",
			st.Table, wantTable)
	}
	if got := mustReadFile(t, st.MergedJournal); !bytes.Equal(got, wantJournal) {
		t.Errorf("merged journal after death+resume differs from single-process canonical journal (%d vs %d bytes)",
			len(got), len(wantJournal))
	}

	snap, err := obs.FetchSnapshot(nil, "http://"+co.Addr())
	if err != nil {
		t.Fatalf("scrape /metrics: %v", err)
	}
	if n := snap.Counters["serve_releases"]; n < 1 {
		t.Errorf("serve_releases = %d, want >= 1 (watchdog re-lease)", n)
	}
	if n := snap.Counters["fi_plans"]; n != int64(spec.Samples) {
		t.Errorf("fi_plans = %d, want %d", n, spec.Samples)
	}
	if n := snap.Counters["fi_campaigns"]; n != 1 {
		t.Errorf("fi_campaigns = %d, want 1", n)
	}
	// The merged journal holds 1 meta + one record per plan + one cell; the
	// coordinator's own accounting must reconcile exactly, with the workers'
	// journal.* counters (including the resume's skipped plans) filtered out.
	if n := snap.Counters["journal_records"]; n != int64(1+spec.Samples+1) {
		t.Errorf("journal_records = %d, want %d", n, 1+spec.Samples+1)
	}
	if n := snap.Counters["journal_skipped_plans"]; n != 0 {
		t.Errorf("journal_skipped_plans = %d leaked from a worker snapshot", n)
	}
}

// TestAdmissionLimits exercises the bounded queue and per-tenant quotas: both
// reject with typed errors, and the HTTP surface turns them into 429s the
// client reports as ErrRejected.
func TestAdmissionLimits(t *testing.T) {
	co, err := Start(Config{
		Addr: "127.0.0.1:0", Dir: t.TempDir(), QueueMax: 2, TenantQuota: 1,
	})
	if err != nil {
		t.Fatalf("start coordinator: %v", err)
	}
	defer co.Close()

	spec := testSpec("bfs", harness.Raw, 8)
	if _, err := co.Submit("t1", spec); err != nil {
		t.Fatalf("first submission rejected: %v", err)
	}
	if _, err := co.Submit("t1", spec); !errors.Is(err, ErrTenantQuota) {
		t.Errorf("second t1 submission: %v, want ErrTenantQuota", err)
	}
	if _, err := co.Submit("t2", spec); err != nil {
		t.Fatalf("t2 submission rejected: %v", err)
	}
	if _, err := co.Submit("t3", spec); !errors.Is(err, ErrQueueFull) {
		t.Errorf("over-queue submission: %v, want ErrQueueFull", err)
	}

	// Through the HTTP surface the same rejection is a 429 → ErrRejected.
	cl := &Client{Base: "http://" + co.Addr(), Tenant: "t3"}
	if _, err := cl.Submit(spec); !errors.Is(err, ErrRejected) {
		t.Errorf("HTTP over-queue submission: %v, want ErrRejected", err)
	}

	if n := co.snapshot().Counters["serve.rejects"]; n != 3 {
		t.Errorf("serve.rejects = %d, want 3", n)
	}
	if n := co.snapshot().Gauges["serve.unfinished"]; n != 2 {
		t.Errorf("serve.unfinished = %d, want 2", n)
	}
}

// TestSubmitRejectsUnknownBench: the campaign ID built from spec.Bench names
// a directory under -dir, so a name that is not a registered benchmark — a
// path traversal or a plain typo — is refused with a 400 before any
// directory is created, and no campaign is admitted.
func TestSubmitRejectsUnknownBench(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "data")
	co, err := Start(Config{Addr: "127.0.0.1:0", Dir: dir})
	if err != nil {
		t.Fatalf("start coordinator: %v", err)
	}
	defer co.Close()

	for _, name := range []string{"../../../escaped", "no-such-bench"} {
		if id, err := co.Submit("t", testSpec(name, harness.Raw, 8)); err == nil {
			t.Errorf("Submit(%q) admitted campaign %s", name, id)
		}
		body := fmt.Sprintf(`{"tenant":"t","spec":{"bench":%q,"technique":"raw","level":"asm","samples":8}}`, name)
		resp, err := http.Post("http://"+co.Addr()+"/api/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /api/submit: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /api/submit bench %q: %s, want 400", name, resp.Status)
		}
	}

	for d, want := range map[string]int{root: 1, dir: 0} {
		ents, err := os.ReadDir(d)
		if err != nil {
			t.Fatalf("read %s: %v", d, err)
		}
		if len(ents) != want {
			var names []string
			for _, e := range ents {
				names = append(names, e.Name())
			}
			t.Errorf("%s holds %v, want %d entries", d, names, want)
		}
	}
	if n := co.snapshot().Counters[mCampaignsAdmitted]; n != 0 {
		t.Errorf("%s = %d, want 0", mCampaignsAdmitted, n)
	}
}

// TestStaleEpochRejected covers the lease-epoch fencing and upload
// validation: chunks from an old epoch are 409s, torn or corrupt chunks 400s.
func TestStaleEpochRejected(t *testing.T) {
	co, err := Start(Config{Addr: "127.0.0.1:0", Dir: t.TempDir(), Shards: 2})
	if err != nil {
		t.Fatalf("start coordinator: %v", err)
	}
	defer co.Close()

	spec := testSpec("bfs", harness.Raw, 8)
	id, err := co.Submit("t", spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	l, _, err := co.lease("w1")
	if err != nil || l == nil {
		t.Fatalf("lease: %v (lease %v)", err, l)
	}

	// A valid chunk to replay under different epochs: a real journal file.
	seed := filepath.Join(t.TempDir(), "seed.ndjson")
	j, err := fi.CreateJournal(seed, l.Meta)
	if err != nil {
		t.Fatalf("create journal: %v", err)
	}
	j.Close()
	chunk := mustReadFile(t, seed)

	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post("http://"+co.Addr()+path, "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	records := func(epoch int) string {
		return fmt.Sprintf("/api/records?campaign=%s&shard=%d&epoch=%d", id, l.Shard, epoch)
	}

	if code := post(records(l.Epoch+7), chunk); code != http.StatusConflict {
		t.Errorf("stale-epoch upload: %d, want 409", code)
	}
	if code := post(records(l.Epoch), []byte("not json\n")); code != http.StatusBadRequest {
		t.Errorf("corrupt upload: %d, want 400", code)
	}
	if code := post(records(l.Epoch), chunk[:len(chunk)-1]); code != http.StatusBadRequest {
		t.Errorf("torn upload (no trailing newline): %d, want 400", code)
	}
	// Well-formed records the journal loader refuses would make the shard
	// journal unloadable once appended.
	for _, bad := range []string{
		`{"t":"cell","c":"x","res":"oops"}`,
		`{"t":"meta","v":1,"meta":{"tool":"test"}}`,
	} {
		if code := post(records(l.Epoch), []byte(bad+"\n")); code != http.StatusBadRequest {
			t.Errorf("unloadable upload %s: %d, want 400", bad, code)
		}
	}
	if code := post(records(l.Epoch), chunk); code != http.StatusNoContent {
		t.Errorf("current-epoch upload: %d, want 204", code)
	}

	// Release the shard; every further upload under the old epoch is stale.
	if err := co.release(ReleaseRequest{Campaign: id, Shard: l.Shard, Epoch: l.Epoch, Error: "test"}); err != nil {
		t.Fatalf("release: %v", err)
	}
	if code := post(records(l.Epoch), chunk); code != http.StatusConflict {
		t.Errorf("upload after release: %d, want 409", code)
	}
	if err := co.heartbeat(HeartbeatRequest{Campaign: id, Shard: l.Shard, Epoch: l.Epoch}); !errors.Is(err, errStale) {
		t.Errorf("heartbeat after release: %v, want errStale", err)
	}
	if n := co.snapshot().Counters["serve.stale_drops"]; n < 3 {
		t.Errorf("serve.stale_drops = %d, want >= 3", n)
	}
}

// TestRecordsMetaOnlyFirst: a shard journal's configuration is its first
// record. The first chunk must open with the lease's own meta, and no later
// chunk may carry one, so an upload cannot swap the configuration a
// re-leased shard resumes under.
func TestRecordsMetaOnlyFirst(t *testing.T) {
	co, err := Start(Config{Addr: "127.0.0.1:0", Dir: t.TempDir(), Shards: 2})
	if err != nil {
		t.Fatalf("start coordinator: %v", err)
	}
	defer co.Close()
	id, err := co.Submit("t", testSpec("bfs", harness.Raw, 8))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	l, _, err := co.lease("w1")
	if err != nil || l == nil {
		t.Fatalf("lease: %v (lease %v)", err, l)
	}
	metaChunk := func(m fi.JournalMeta) []byte {
		path := filepath.Join(t.TempDir(), "meta.ndjson")
		j, err := fi.CreateJournal(path, m)
		if err != nil {
			t.Fatalf("create journal: %v", err)
		}
		j.Close()
		return mustReadFile(t, path)
	}
	other := l.Meta
	other.Seed++
	plan := []byte(fmt.Sprintf(`{"t":"plan","c":%q,"i":0,"o":0,"s":0}`+"\n", l.Key))
	upload := func(chunk []byte) error { return co.appendRecords(id, l.Shard, l.Epoch, chunk) }

	if err := upload(plan); err == nil {
		t.Error("first chunk without a meta record accepted")
	}
	if err := upload(metaChunk(other)); err == nil {
		t.Error("first chunk with another configuration's meta accepted")
	}
	if err := upload(metaChunk(l.Meta)); err != nil {
		t.Fatalf("first chunk with the lease's meta: %v", err)
	}
	if err := upload(metaChunk(l.Meta)); err == nil {
		t.Error("second meta record accepted")
	}
	if err := upload(append(plan, metaChunk(other)...)); err == nil {
		t.Error("chunk with a meta record after a plan record accepted")
	}
	if err := upload(plan); err != nil {
		t.Fatalf("plan chunk: %v", err)
	}
	st, err := fi.LoadJournalData(mustReadFile(t, co.campaigns[id].shards[l.Shard].path), "shard")
	if err != nil {
		t.Fatalf("shard journal does not load: %v", err)
	}
	if err := st.Meta.Check(l.Meta); err != nil {
		t.Errorf("shard journal meta: %v", err)
	}
}

// TestLeaseMetaCheckNamesField: a worker resuming a shard journal recorded
// under a different configuration must fail with the first differing field
// named — the service-level face of JournalMeta.Check.
func TestLeaseMetaCheckNamesField(t *testing.T) {
	dir := t.TempDir()
	co, err := Start(Config{Addr: "127.0.0.1:0", Dir: dir, Shards: 2})
	if err != nil {
		t.Fatalf("start coordinator: %v", err)
	}
	defer co.Close()

	spec := testSpec("bfs", harness.Raw, 8) // Seed 7
	id, err := co.Submit("t", spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Plant a prior shard journal recorded under a different seed, as if the
	// coordinator had been restarted with a changed spec.
	bad := spec
	bad.Seed = 9
	meta := SpecMeta(bad)
	meta.ShardIndex, meta.ShardCount = 0, 2
	j, err := fi.CreateJournal(filepath.Join(dir, id, "shard-0.ndjson"), meta)
	if err != nil {
		t.Fatalf("plant prior journal: %v", err)
	}
	j.Close()

	w := &Worker{Base: "http://" + co.Addr(), Name: "w"}
	worked, _, err := w.RunOne()
	if !worked {
		t.Fatalf("worker got no lease")
	}
	if err == nil || !strings.Contains(err.Error(), "journal seed=9, invocation seed=7") {
		t.Errorf("mismatched prior journal: %v, want the seed field named", err)
	}

	// The worker released the lease voluntarily: shard pending again with a
	// bumped epoch, release counted.
	st, ok := co.Status(id)
	if !ok {
		t.Fatalf("campaign %s vanished", id)
	}
	if st.Shards[0].State != ShardPending || st.Shards[0].Epoch != 2 {
		t.Errorf("shard 0 after failed resume: %+v, want pending at epoch 2", st.Shards[0])
	}
	if n := co.snapshot().Counters["serve.releases"]; n != 1 {
		t.Errorf("serve.releases = %d, want 1", n)
	}
}
