package fi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"

	"ferrum/internal/obs"
)

// The campaign journal makes long suites durable: one NDJSON record per
// completed fault plan and one per completed campaign, fsync-batched, so a
// killed process loses at most the last unsynced batch. A resumed run loads
// the journal, skips every journaled plan and campaign, and produces
// byte-identical final tables to an uninterrupted run — outcomes are
// deterministic given the seed, so replayed work and re-run work agree.
//
// Record stream (one JSON object per line):
//
//	{"t":"meta","v":2,"meta":{...}}           — first line; config fingerprint
//	{"t":"plan","c":"<key>","i":17,"o":1,
//	 "s":204,"l":96}                          — plan i of campaign <key> had outcome o;
//	                                            it hit dynamic site s and its fault ran
//	                                            l engine units (cycles / retired insts)
//	                                            before the terminal event. l is absent
//	                                            when the fault was never injected.
//	{"t":"cell","c":"<key>","res":{...}}      — campaign <key> completed with Result res
//
// A torn trailing record (the process died mid-write) is detected on load,
// dropped, and truncated away before appending resumes; the plan it described
// is simply re-run.

// journalVersion is bumped when the record schema changes incompatibly.
// v2 added the per-plan fault site ("s") and detection latency ("l") fields
// and the Result.Latency summary inside cell records.
const journalVersion = 2

// defaultSyncBatch is how many records may accumulate before the journal
// flushes and fsyncs. Batching amortises fsync latency across plans; a crash
// loses at most this many plan records, each of which is re-run on resume.
const defaultSyncBatch = 64

// JournalMeta fingerprints the configuration a journal was recorded under.
// Resume refuses a journal whose meta does not match the current invocation:
// journaled outcomes are only reusable when they came from the same plans.
// Nobody fills it by hand: Campaign.Meta derives the plan-space fields and
// the harness stamps the target fields on top, so a result-shaping setting
// cannot be left out. Fields that cannot change results (worker counts,
// progress, sinks) are deliberately absent. Fields added after the first
// journals were written are omitempty at their default, so those journals
// still resume.
type JournalMeta struct {
	Tool       string   `json:"tool"` // "reprod", "fidi", or a library caller's tag
	Exp        string   `json:"exp,omitempty"`
	Seed       int64    `json:"seed"`
	Samples    int      `json:"samples"`
	Scale      int      `json:"scale,omitempty"`
	Optimize   bool     `json:"optimize,omitempty"`
	Benchmarks []string `json:"benchmarks,omitempty"`
	Technique  string   `json:"technique,omitempty"`
	Level      string   `json:"level,omitempty"`
	Bits       int      `json:"bits,omitempty"`
	CIWidth    float64  `json:"ci_width,omitempty"`
	// Prune is the PruneMode string ("" when off). It must guard resume:
	// a pruned journal's plan indices are dense representative indices, a
	// different partition of the same seed's plan space.
	Prune string `json:"prune,omitempty"`
	// Compose is the ComposeMode string ("" when off). It must guard resume
	// for the same reason as Prune: a composed journal's plan indices come
	// from per-section stratified sampling, a different plan sequence than
	// the monolithic draw from the same seed.
	Compose string `json:"compose,omitempty"`
	// ShardIndex/ShardCount identify one shard of a distributed campaign
	// (fiserve): the shard executes only the plan-generation indices
	// congruent to ShardIndex mod ShardCount, journaled under dense
	// shard-local indices. ShardCount zero means unsharded; a merged
	// journal carries no shard fields — it speaks for the whole campaign.
	ShardIndex int `json:"shard,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`
	// CheckpointEvery is the forced snapshot spacing K, recorded only under
	// compose, where K cuts the sections the plan draw is stratified over
	// (0: auto-tuned, itself a function of the recorded fields).
	CheckpointEvery uint64 `json:"checkpoint_every,omitempty"`
	// MaxSteps is the per-run step budget (0: the default budget): it
	// decides where a run is classified as a hang.
	MaxSteps uint64 `json:"max_steps,omitempty"`
	// MemSize is the machine memory size, recorded when not the default.
	MemSize int `json:"mem_size,omitempty"`
}

// Check reports an error naming the first field (in declaration order)
// where the journal's meta differs from the current invocation's — e.g.
// "journal seed=7, invocation seed=9" — so a mismatched resume, or a shard
// worker leasing from a differently-configured coordinator, says exactly
// what to fix instead of dumping both configurations to eyeball.
func (m JournalMeta) Check(want JournalMeta) error {
	a, b := reflect.ValueOf(m), reflect.ValueOf(want)
	for i := 0; i < a.NumField(); i++ {
		name, _, _ := strings.Cut(a.Type().Field(i).Tag.Get("json"), ",")
		if x, y := metaValue(a.Field(i)), metaValue(b.Field(i)); x != y {
			return fmt.Errorf("fi: journal was recorded under a different configuration: journal %s=%v, invocation %s=%v",
				name, x, name, y)
		}
	}
	return nil
}

// metaValue is a meta field's comparable, printable value: lists compare
// and print comma-joined, so a nil list equals an empty one.
func metaValue(v reflect.Value) any {
	if l, ok := v.Interface().([]string); ok {
		return strings.Join(l, ",")
	}
	return v.Interface()
}

type journalRecord struct {
	T    string          `json:"t"`
	V    int             `json:"v,omitempty"`
	Meta *JournalMeta    `json:"meta,omitempty"`
	C    string          `json:"c,omitempty"`
	I    int             `json:"i,omitempty"`
	O    Outcome         `json:"o,omitempty"`
	S    *uint64         `json:"s,omitempty"`  // dynamic fault site (plan records, v2+)
	L    *float64        `json:"l,omitempty"`  // detection latency in engine units; nil = not injected
	FB   *bool           `json:"fb,omitempty"` // composed-campaign fallback plan (absent = false)
	Res  json.RawMessage `json:"res,omitempty"`
}

// JournalSink is the byte sink a Journal writes through: an *os.File for
// on-disk journals, or a streaming transport (a fiserve shard worker
// appending records over an HTTP request body). Sync must make every byte
// written so far durable from the journal's point of view — fsync for
// files, whatever flush the transport offers for streams.
type JournalSink interface {
	io.Writer
	Sync() error
	Close() error
}

// Journal is the crash-safe campaign journal writer. All methods are safe
// for concurrent use (campaign workers across scheduler cells share one
// journal) and nil-safe, so un-journaled campaigns pay nothing.
type Journal struct {
	mu      sync.Mutex
	f       JournalSink
	w       *bufio.Writer
	pending int
	batch   int
	closed  bool
	err     error
	ob      *obs.Observer
}

// CreateJournal creates (or truncates) a journal at path and writes the meta
// record. The meta record is synced immediately: a journal file, if it
// exists at all, always identifies its configuration.
func CreateJournal(path string, meta JournalMeta) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("fi: create journal: %w", err)
	}
	j, err := NewStreamJournal(f, meta)
	if err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// NewStreamJournal wraps an arbitrary sink as a campaign journal and writes
// (and syncs) the meta record, exactly as CreateJournal does for a fresh
// file. fiserve shard workers journal through it over a streaming HTTP
// body: the coordinator owns the durable shard file, the worker only
// appends records. The sink is not closed on error; that stays with the
// caller who opened it.
func NewStreamJournal(sink JournalSink, meta JournalMeta) (*Journal, error) {
	j := &Journal{f: sink, w: bufio.NewWriter(sink), batch: defaultSyncBatch}
	j.append(journalRecord{T: "meta", V: journalVersion, Meta: &meta})
	j.mu.Lock()
	j.syncLocked()
	err := j.err
	j.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return j, nil
}

// Observe binds the journal's counters (journal.records, journal.syncs) to
// an observability registry. Nil observers are fine.
func (j *Journal) Observe(ob *obs.Observer) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.ob = ob
	j.mu.Unlock()
}

func (j *Journal) append(r journalRecord) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil || j.closed {
		return
	}
	b, err := json.Marshal(r)
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		j.err = err
		return
	}
	j.ob.Counter(obs.MJournalRecords).Add(1)
	j.pending++
	if j.pending >= j.batch {
		j.syncLocked()
	}
}

// syncLocked flushes the buffer and fsyncs; callers hold j.mu.
func (j *Journal) syncLocked() {
	if j.err != nil || j.pending == 0 && j.w.Buffered() == 0 {
		return
	}
	if err := j.w.Flush(); err != nil {
		j.err = err
		return
	}
	if err := j.f.Sync(); err != nil {
		j.err = err
		return
	}
	j.pending = 0
	j.ob.Counter(obs.MJournalSyncs).Add(1)
}

// Plan records one completed fault plan: plan index i of campaign key had
// outcome o, hitting dynamic site site. lat is the fault's detection
// latency in engine units; hasLat false (the fault was never injected)
// omits the latency field rather than journaling a spurious zero. fb marks
// a composed-campaign fallback plan (omitted when false), so a resumed
// composed campaign rebuilds the identical Sections/Fallbacks ledger.
func (j *Journal) Plan(key string, i int, o Outcome, site uint64, lat float64, hasLat, fb bool) {
	r := journalRecord{T: "plan", C: key, I: i, O: o, S: &site}
	if hasLat {
		r.L = &lat
	}
	if fb {
		r.FB = &fb
	}
	j.append(r)
}

// Cell records a completed campaign's full Result and syncs immediately —
// cell boundaries are the records a resumed suite skips whole campaigns on,
// so they are never left sitting in the batch buffer.
func (j *Journal) Cell(key string, res Result) {
	if j == nil {
		return
	}
	b, err := json.Marshal(res)
	if err != nil {
		j.mu.Lock()
		if j.err == nil {
			j.err = err
		}
		j.mu.Unlock()
		return
	}
	j.append(journalRecord{T: "cell", C: key, Res: b})
	j.Sync()
}

// Sync flushes buffered records to disk and fsyncs.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.syncLocked()
	return j.err
}

// Err returns the first write error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close syncs and closes the journal. Idempotent; later appends are dropped.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return j.err
	}
	j.syncLocked()
	j.closed = true
	if err := j.f.Close(); err != nil && j.err == nil {
		j.err = err
	}
	return j.err
}

// CellState is what a loaded journal knows about one campaign key.
type CellState struct {
	// Result is the completed campaign's journaled result; non-nil means the
	// whole campaign can be answered without running anything.
	Result *Result
	// Plans maps plan index → journaled outcome for the plans that completed
	// before the process died.
	Plans map[int]Outcome
	// PlanLats maps plan index → journaled detection latency (engine units)
	// for the subset of journaled plans whose fault was injected. Replayed
	// alongside Plans so a resumed campaign's latency histograms match an
	// uninterrupted run's exactly.
	PlanLats map[int]float64
	// PlanSites maps plan index → the dynamic fault site the plan hit, when
	// the journal recorded it (schema v2+). Post-hoc analytics (fistat's
	// per-site heatmap) key on it; resume does not need it.
	PlanSites map[int]uint64
	// PlanFB holds the plan indices journaled as composed-campaign fallback
	// plans (membership = true), so resume replays the fallback ledger.
	PlanFB map[int]bool
}

// JournalState is a loaded journal: everything a resumed run can skip.
type JournalState struct {
	Meta  JournalMeta
	cells map[string]*CellState
	// TornDropped reports that the journal ended in a partial record (the
	// writing process died mid-append); the record was dropped and the file
	// truncated back to the last complete record.
	TornDropped bool
	validLen    int64 // byte length of the parseable prefix
}

// Cell returns the journaled state for a campaign key, or nil. Nil states
// (no resume) return nil for every key.
func (s *JournalState) Cell(key string) *CellState {
	if s == nil {
		return nil
	}
	return s.cells[key]
}

// Cells reports how many campaign keys have a completed cell record.
func (s *JournalState) Cells() (complete, partial int) {
	if s == nil {
		return 0, 0
	}
	for _, c := range s.cells {
		if c.Result != nil {
			complete++
		} else {
			partial++
		}
	}
	return complete, partial
}

// LoadJournal parses a journal file. A torn trailing record — truncated
// JSON, or a final line without its newline — is dropped and reported via
// TornDropped; corruption anywhere else is an error, because records after
// it cannot be trusted. Duplicate plan records (a cell retried within one
// process) keep the last occurrence; outcomes are deterministic, so
// duplicates agree anyway.
func LoadJournal(path string) (*JournalState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fi: load journal: %w", err)
	}
	return LoadJournalData(data, path)
}

// LoadJournalData parses journal bytes already in hand — a shard journal
// shipped inside a fiserve lease, or a coordinator's in-memory copy of a
// shard file — with LoadJournal's exact semantics. name labels the source
// in error messages.
func LoadJournalData(data []byte, name string) (*JournalState, error) {
	st := &JournalState{cells: map[string]*CellState{}}
	sawMeta := false
	off := int64(0)
	for lineNo := 1; len(data) > 0; lineNo++ {
		nl := bytes.IndexByte(data, '\n')
		var line []byte
		complete := nl >= 0
		if complete {
			line, data = data[:nl], data[nl+1:]
		} else {
			line, data = data, nil
		}
		lineLen := int64(len(line))
		if complete {
			lineLen++
		}
		if len(bytes.TrimSpace(line)) == 0 {
			off += lineLen
			continue
		}
		var r journalRecord
		if err := json.Unmarshal(line, &r); err != nil || !validRecord(r) {
			if len(data) == 0 {
				// Torn tail: the process died mid-append. Drop it; the plan
				// it described is re-run.
				st.TornDropped = true
				break
			}
			return nil, fmt.Errorf("fi: journal corrupt at line %d: %q", lineNo, line)
		}
		if !complete {
			// Parsed, but the newline never made it to disk — treat the
			// record as committed; the content is intact.
			st.TornDropped = true
		}
		switch r.T {
		case "meta":
			if r.V != journalVersion {
				return nil, fmt.Errorf("fi: journal %s uses schema v%d; this build reads v%d — "+
					"finish it with the matching build, or re-run without -resume to record a fresh journal",
					name, r.V, journalVersion)
			}
			st.Meta = *r.Meta
			sawMeta = true
		case "plan":
			c := st.cell(r.C)
			c.Plans[r.I] = r.O
			if r.L != nil {
				c.PlanLats[r.I] = *r.L
			} else {
				delete(c.PlanLats, r.I) // duplicate record without latency wins whole
			}
			if r.S != nil {
				c.PlanSites[r.I] = *r.S
			}
			if r.FB != nil && *r.FB {
				c.PlanFB[r.I] = true
			} else {
				delete(c.PlanFB, r.I) // duplicate record without the flag wins whole
			}
		case "cell":
			var res Result
			if err := json.Unmarshal(r.Res, &res); err != nil {
				return nil, fmt.Errorf("fi: journal cell record corrupt at line %d: %v", lineNo, err)
			}
			st.cell(r.C).Result = &res
		}
		off += lineLen
	}
	if !sawMeta {
		return nil, fmt.Errorf("fi: journal %s has no meta record", name)
	}
	st.validLen = off
	return st, nil
}

// ValidLen is the byte length of the journal's parseable prefix — everything
// before a torn trailing record. The fiserve coordinator truncates a dead
// worker's shard journal to it before re-leasing, so the next worker appends
// on a record boundary.
func (s *JournalState) ValidLen() int64 { return s.validLen }

func (s *JournalState) cell(key string) *CellState {
	c := s.cells[key]
	if c == nil {
		c = &CellState{
			Plans:     map[int]Outcome{},
			PlanLats:  map[int]float64{},
			PlanSites: map[int]uint64{},
			PlanFB:    map[int]bool{},
		}
		s.cells[key] = c
	}
	return c
}

// Keys returns the journal's campaign keys in sorted order, for post-hoc
// analytics that iterate every journaled campaign.
func (s *JournalState) Keys() []string {
	if s == nil {
		return nil
	}
	keys := make([]string, 0, len(s.cells))
	for k := range s.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func validRecord(r journalRecord) bool {
	switch r.T {
	case "meta":
		return r.Meta != nil
	case "plan":
		return r.C != "" && r.I >= 0 && r.O < numOutcomes
	case "cell":
		return r.C != "" && len(r.Res) > 0
	}
	return false
}

// ResumeStreamJournal wraps a sink whose stream already begins with a meta
// record — a re-leased fiserve shard appending to the coordinator's durable
// shard file — so, unlike NewStreamJournal, no fresh meta record is written.
func ResumeStreamJournal(sink JournalSink) *Journal {
	return &Journal{f: sink, w: bufio.NewWriter(sink), batch: defaultSyncBatch}
}

// ValidateRecords checks that data is a whole number of well-formed journal
// records — the unit a streaming shard worker appends in one sync. The
// fiserve coordinator runs it on every records upload before the bytes reach
// the durable shard file, so a garbled or mid-record-truncated upload is
// rejected whole rather than tearing the journal.
func ValidateRecords(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if data[len(data)-1] != '\n' {
		return fmt.Errorf("fi: journal chunk does not end at a record boundary")
	}
	for lineNo := 1; len(data) > 0; lineNo++ {
		nl := bytes.IndexByte(data, '\n')
		line := data[:nl]
		data = data[nl+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r journalRecord
		if err := json.Unmarshal(line, &r); err != nil || !validRecord(r) {
			return fmt.Errorf("fi: journal chunk corrupt at line %d: %q", lineNo, line)
		}
	}
	return nil
}

// ResumeJournal loads a journal and reopens it for appending. If the file
// ended in a torn record, the tail is truncated away first so the appended
// stream stays line-aligned.
func ResumeJournal(path string) (*JournalState, *Journal, error) {
	st, err := LoadJournal(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("fi: resume journal: %w", err)
	}
	if err := f.Truncate(st.validLen); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("fi: resume journal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(st.validLen, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("fi: resume journal: %w", err)
	}
	return st, &Journal{f: f, w: bufio.NewWriter(f), batch: defaultSyncBatch}, nil
}
