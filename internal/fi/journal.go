package fi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"strconv"
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
//	{"t":"meta","v":3,"meta":{...}}           — first line; config fingerprint
//	{"t":"plan","c":"<key>","i":17,"o":1,
//	 "s":204,"l":96}                          — plan i of campaign <key> had outcome o;
//	                                            it hit dynamic site s (required) and its
//	                                            fault ran l engine units (cycles / retired
//	                                            insts) before the terminal event. l is
//	                                            absent when the fault was never injected;
//	                                            "fb":true marks a composed fallback plan.
//	{"t":"cell","c":"<key>","res":{...}}      — campaign <key> completed with Result res
//
// A torn trailing record (the process died mid-write) is detected on load,
// dropped, and truncated away before appending resumes; the plan it described
// is simply re-run.

// journalVersion is bumped when the record schema, or the plans its
// records index, change incompatibly. v2 added the per-plan fault site
// ("s") and detection latency ("l") fields and the Result.Latency summary
// inside cell records. v3 moved the sections of auto-K composed campaigns:
// their K now comes from the golden run's schedule, so their stratified
// plan indices name other plans, and a v2 composed journal must be refused
// loudly, never resumed into the new sections.
const journalVersion = 3

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
// still resume. A meta naming a field this build does not read, such as
// an older build's forced checkpoint spacing, memory size or early-stopping
// CI width, is refused.
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
	// MaxSteps is the per-run step budget (0: the default budget): it
	// decides where a run is classified as a hang.
	MaxSteps uint64 `json:"max_steps,omitempty"`
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
	S    *uint64         `json:"s,omitempty"`  // dynamic fault site; required in plan records
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
	// records and syncs count journal.records and journal.syncs. They
	// start standalone, so that a fresh journal's meta record and its
	// sync, written before any observer can be bound, count too; Observe
	// rebinds them into a registry.
	records, syncs *obs.Counter
	// quoted holds each campaign key JSON-quoted, and line the plan record
	// being written, so that a plan record allocates nothing once its
	// campaign's first one is written.
	quoted map[string][]byte
	line   []byte
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
	j := newJournal(sink)
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

// newJournal is a journal appending to sink, with standalone counters.
func newJournal(sink JournalSink) *Journal {
	return &Journal{f: sink, w: bufio.NewWriter(sink), batch: defaultSyncBatch,
		records: &obs.Counter{}, syncs: &obs.Counter{}}
}

// Observe rebinds the journal's counters (journal.records, journal.syncs)
// into an observability registry, carrying the counts so far across.
// Idempotent for a given observer. Nil observers are fine.
func (j *Journal) Observe(ob *obs.Observer) {
	if j == nil || ob == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	ob.Reg.Rebind(&j.records, obs.MJournalRecords)
	ob.Reg.Rebind(&j.syncs, obs.MJournalSyncs)
}

func (j *Journal) append(r journalRecord) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	b, err := json.Marshal(r)
	j.writeLocked(append(b, '\n'), err)
}

// writeLocked writes one record line, or latches err, the error encoding
// it failed with; callers hold j.mu.
func (j *Journal) writeLocked(line []byte, err error) {
	if j.err != nil || j.closed {
		return
	}
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.w.Write(line); err != nil {
		j.err = err
		return
	}
	j.records.Add(1)
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
	j.syncs.Add(1)
}

// Plan records one completed fault plan: plan index i of campaign key
// ended as rec says.
func (j *Journal) Plan(key string, i int, rec PlanRecord) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	q, ok := j.quoted[key]
	if !ok {
		if j.quoted == nil {
			j.quoted = map[string][]byte{}
		}
		q = quoteKey(key)
		j.quoted[key] = q
	}
	var err error
	j.line, err = appendPlanRecord(j.line[:0], key, q, i, rec)
	j.writeLocked(j.line, err)
}

// quoteKey is key as a JSON string, escaped as encoding/json escapes it.
func quoteKey(key string) []byte {
	q, _ := json.Marshal(key) // a string always encodes
	return q
}

// appendPlanRecord appends the plan record line of plan i of campaign key
// to b, newline included; quoted is quoteKey(key). The line is byte for
// byte what json.Marshal writes for the journalRecord with T "plan", C
// key, I i, O rec.Outcome and S rec.Site: fields in declaration order,
// zero I and O and an empty C omitted. A latency is written only when the
// fault was injected, never as a spurious zero; the fallback flag only
// when set, so a resumed composed campaign rebuilds the identical
// Sections/Fallbacks ledger. It fails where json.Marshal does, on a NaN or
// infinite latency.
func appendPlanRecord(b []byte, key string, quoted []byte, i int, rec PlanRecord) ([]byte, error) {
	b = append(b, `{"t":"plan"`...)
	if key != "" {
		b = append(append(b, `,"c":`...), quoted...)
	}
	if i != 0 {
		b = strconv.AppendInt(append(b, `,"i":`...), int64(i), 10)
	}
	if rec.Outcome != 0 {
		b = strconv.AppendUint(append(b, `,"o":`...), uint64(rec.Outcome), 10)
	}
	b = strconv.AppendUint(append(b, `,"s":`...), rec.Site, 10)
	if rec.HasLat {
		f := rec.Lat
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, fmt.Errorf("fi: journal: unsupported latency %v", f)
		}
		b = appendJSONFloat(append(b, `,"l":`...), f)
	}
	if rec.Fallback {
		b = append(b, `,"fb":true`...)
	}
	return append(b, "}\n"...), nil
}

// appendJSONFloat appends a finite f as encoding/json writes a float64:
// the shortest decimal that round-trips, in exponent form when |f| is
// below 1e-6 or at least 1e21, with a one-digit negative exponent not
// padded to two.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// planRecord is the PlanRecord a validated plan record holds.
func (r journalRecord) planRecord() PlanRecord {
	rec := PlanRecord{Outcome: r.O, Site: *r.S, Fallback: r.FB != nil && *r.FB}
	if r.L != nil {
		rec.Lat, rec.HasLat = *r.L, true
	}
	return rec
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
	// Plans maps plan index → journaled record for the plans that completed
	// before the process died. Resume replays them whole, so a resumed
	// campaign's latency histograms and fallback ledger match an
	// uninterrupted run's exactly; post-hoc analytics (fistat's per-site
	// heatmap) key on their sites.
	Plans map[int]PlanRecord
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
	// unterminated reports that the parseable prefix ends in a record
	// whose newline never reached the disk.
	unterminated bool
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
// it cannot be trusted. A duplicate plan record replaces the earlier one
// whole; outcomes are deterministic, so duplicates agree anyway.
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
	off, records := int64(0), 0
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
		r, res, err := parseRecord(line)
		if errors.Is(err, errMalformed) {
			if len(data) == 0 {
				// Torn tail: the process died mid-append. Drop it; the plan
				// it described is re-run.
				st.TornDropped = true
				break
			}
			return nil, fmt.Errorf("fi: journal corrupt at line %d: %q", lineNo, line)
		}
		if err != nil {
			return nil, fmt.Errorf("fi: journal %s, line %d: %v", name, lineNo, err)
		}
		if !complete {
			// Parsed, but the newline never made it to disk — treat the
			// record as committed; the content is intact.
			st.TornDropped, st.unterminated = true, true
		}
		switch r.T {
		case "meta":
			if records > 0 {
				// Only the first record says which configuration the
				// journal belongs to; a later one must not replace it.
				return nil, fmt.Errorf("fi: journal %s, line %d: meta record after the first record", name, lineNo)
			}
			st.Meta = *r.Meta
			sawMeta = true
		case "plan":
			st.cell(r.C).Plans[r.I] = r.planRecord()
		case "cell":
			st.cell(r.C).Result = res
		}
		records++
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
		c = &CellState{Plans: map[int]PlanRecord{}}
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

// errMalformed marks a line that is not a journal record at all: garbled
// JSON, an unknown record type or a missing field. At a journal's tail it
// is a torn append.
var errMalformed = errors.New("malformed journal record")

// parseRecord decodes one journal line and applies the per-record checks
// the loader and ValidateRecords share, so every chunk ValidateRecords
// accepts also loads. Besides errMalformed it refuses a well-formed record
// this build cannot use: a meta record of another schema version, or a
// cell record whose result does not decode. res is a cell record's result.
func parseRecord(line []byte) (r journalRecord, res *Result, err error) {
	if json.Unmarshal(line, &r) != nil || !validRecord(r) {
		return r, nil, errMalformed
	}
	switch r.T {
	case "meta":
		if r.V != journalVersion {
			return r, nil, fmt.Errorf("uses schema v%d; this build reads v%d — "+
				"finish it with the matching build, or re-run without -resume to record a fresh journal",
				r.V, journalVersion)
		}
		if err := strictMeta(line); err != nil {
			return r, nil, fmt.Errorf("meta record has %s, which this build does not read — "+
				"finish it with the build that wrote it, or re-run without -resume to record a fresh journal",
				strings.TrimPrefix(err.Error(), "json: "))
		}
	case "cell":
		res = new(Result)
		if err := json.Unmarshal(r.Res, res); err != nil {
			return r, nil, fmt.Errorf("cell record result does not decode: %v", err)
		}
	}
	return r, res, nil
}

// strictMeta decodes a meta record's meta object again, refusing a field
// JournalMeta lacks; its error names the field.
func strictMeta(line []byte) error {
	var raw struct{ Meta json.RawMessage }
	_ = json.Unmarshal(line, &raw) // parseRecord decoded line already
	d := json.NewDecoder(bytes.NewReader(raw.Meta))
	d.DisallowUnknownFields()
	return d.Decode(new(JournalMeta))
}

func validRecord(r journalRecord) bool {
	switch r.T {
	case "meta":
		return r.Meta != nil
	case "plan":
		return r.C != "" && r.I >= 0 && r.O < numOutcomes && r.S != nil
	case "cell":
		return r.C != "" && len(r.Res) > 0 && string(r.Res) != "null"
	}
	return false
}

// ResumeStreamJournal wraps a sink whose stream already begins with a meta
// record — a re-leased fiserve shard appending to the coordinator's durable
// shard file — so, unlike NewStreamJournal, no fresh meta record is written.
func ResumeStreamJournal(sink JournalSink) *Journal {
	return newJournal(sink)
}

// ValidateRecords checks that data is a whole number of journal records the
// loader accepts — the unit a streaming shard worker appends in one sync.
// The fiserve coordinator runs it on every records upload before the bytes
// reach the durable shard file, so a garbled, mid-record-truncated or
// unloadable upload (a foreign schema version, an undecodable cell result)
// is rejected whole rather than making the journal unloadable.
//
// A meta record is accepted only as the chunk's first record, and returned:
// it is the start of a journal, so the caller must check that the chunk
// begins its file and that the meta is the configuration it expects.
func ValidateRecords(data []byte) (*JournalMeta, error) {
	if len(data) == 0 {
		return nil, nil
	}
	if data[len(data)-1] != '\n' {
		return nil, fmt.Errorf("fi: journal chunk does not end at a record boundary")
	}
	var meta *JournalMeta
	first := true
	for lineNo := 1; len(data) > 0; lineNo++ {
		nl := bytes.IndexByte(data, '\n')
		line := data[:nl]
		data = data[nl+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		r, _, err := parseRecord(line)
		if err != nil {
			return nil, fmt.Errorf("fi: journal chunk corrupt at line %d: %v: %q", lineNo, err, line)
		}
		if r.T == "meta" {
			if !first {
				return nil, fmt.Errorf("fi: journal chunk has a meta record after its first record, at line %d", lineNo)
			}
			meta = r.Meta
		}
		first = false
	}
	return meta, nil
}

// ResumeJournal loads a journal and reopens it for appending. If the file
// ended in a torn record, the tail is truncated away first, and a final
// record that lost only its newline gets it back, so the appended stream
// stays line-aligned.
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
	j := newJournal(f)
	if st.unterminated {
		// Goes out with the first flush, ahead of every appended record.
		j.w.WriteByte('\n')
	}
	return st, j, nil
}
