package fi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "campaign.ndjson")
}

var testMeta = JournalMeta{Tool: "test", Seed: 42, Samples: 80}

// TestJournalRoundTrip: plan and cell records written through the journal
// come back intact from LoadJournal, keyed by campaign.
func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, err := CreateJournal(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	plans := map[int]PlanRecord{
		0: {Outcome: Benign, Site: 10, Lat: 128, HasLat: true},
		3: {Outcome: SDC, Site: 11},
	}
	for i, rec := range plans {
		j.Plan("a", i, rec)
	}
	j.Plan("b", 1, PlanRecord{Outcome: Crash, Site: 12, Lat: 7, HasLat: true, Fallback: true})
	res := Result{Samples: 2, Counts: [numOutcomes]int{Benign: 1, SDC: 1}, DynSites: 9}
	j.Cell("a", res)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Meta.Check(testMeta); err != nil {
		t.Errorf("meta round-trip: %v", err)
	}
	if st.TornDropped {
		t.Error("clean journal reported a torn record")
	}
	a := st.Cell("a")
	if a == nil || a.Result == nil {
		t.Fatalf("cell a = %+v, want complete", a)
	}
	if a.Result.Samples != 2 || a.Result.Counts != res.Counts || a.Result.DynSites != 9 {
		t.Errorf("cell a result = %+v, want %+v", *a.Result, res)
	}
	if !reflect.DeepEqual(a.Plans, plans) {
		t.Errorf("cell a plans = %v, want %v", a.Plans, plans)
	}
	b := st.Cell("b")
	if b == nil || b.Result != nil || b.Plans[1] != (PlanRecord{Outcome: Crash, Site: 12, Lat: 7, HasLat: true, Fallback: true}) {
		t.Errorf("cell b = %+v, want partial with plan 1 = crash", b)
	}
	if complete, partial := st.Cells(); complete != 1 || partial != 1 {
		t.Errorf("cells = %d complete, %d partial; want 1, 1", complete, partial)
	}
	if st.Cell("missing") != nil {
		t.Error("unknown key returned a cell state")
	}
	var nilState *JournalState
	if nilState.Cell("a") != nil {
		t.Error("nil state returned a cell")
	}
}

// FuzzJournalLoad: LoadJournalData never panics, and any journal it
// accepts re-serialises byte-stably: WriteCanonical → LoadJournalData →
// WriteCanonical writes the same bytes twice, and the state loaded from
// the canonical form equals the first load record for record.
func FuzzJournalLoad(f *testing.F) {
	data := sampleJournal(f)
	f.Add(data)
	f.Add(data[:len(data)*2/3])
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := LoadJournalData(data, "fuzz")
		if err != nil {
			return
		}
		var w1, w2 bytes.Buffer
		if err := st.WriteCanonical(&w1); err != nil {
			t.Fatalf("accepted journal does not serialise: %v", err)
		}
		st2, err := LoadJournalData(w1.Bytes(), "canonical")
		if err != nil {
			t.Fatalf("canonical form does not load: %v\n%s", err, w1.Bytes())
		}
		if err := st2.WriteCanonical(&w2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("canonical form is not stable:\n%s\n---\n%s", w1.Bytes(), w2.Bytes())
		}
		if err := st2.Meta.Check(st.Meta); err != nil {
			t.Fatalf("canonical form changed the meta: %v", err)
		}
		if !slices.Equal(st.Keys(), st2.Keys()) {
			t.Fatalf("canonical form changed the campaign keys: %v != %v", st2.Keys(), st.Keys())
		}
		for _, key := range st.Keys() {
			a, b := st.Cell(key), st2.Cell(key)
			if !reflect.DeepEqual(a.Plans, b.Plans) {
				t.Fatalf("campaign %q: canonical form changed the plan records:\n%v\n---\n%v", key, b.Plans, a.Plans)
			}
			if x, y := canonicalResult(t, a.Result), canonicalResult(t, b.Result); x != y {
				t.Fatalf("campaign %q: canonical form changed the cell result:\n%s\n---\n%s", key, y, x)
			}
		}
	})
}

// canonicalResult is the JSON a canonical cell record holds for res: the
// result without its checkpoint activity. Empty when res is nil.
func canonicalResult(t *testing.T, res *Result) string {
	if res == nil {
		return ""
	}
	r := *res
	r.Checkpoint = CheckpointSummary{}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sampleJournal returns a small complete journal: a meta record, plan
// records for two campaigns and one cell record.
func sampleJournal(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "campaign.ndjson")
	j, err := CreateJournal(path, testMeta)
	if err != nil {
		tb.Fatal(err)
	}
	j.Plan("a", 0, PlanRecord{Outcome: Benign, Site: 10, Lat: 128, HasLat: true})
	j.Plan("a", 3, PlanRecord{Outcome: SDC, Site: 11})
	j.Plan("b", 1, PlanRecord{Outcome: Crash, Site: 12, Lat: 7, HasLat: true, Fallback: true})
	j.Cell("a", Result{Samples: 2, Counts: [numOutcomes]int{Benign: 1, SDC: 1}, DynSites: 9})
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// unloadableChunks are chunks of well-formed JSON lines the journal loader
// refuses mid-stream: cell results that do not decode or are null, meta
// records of older schema versions — v2 among them, whose auto-K composed
// sections the current build cuts elsewhere — and v3 meta records naming
// a field this build does not read (removedMetaFields).
var unloadableChunks = []string{
	`{"t":"cell","c":"x","res":1}` + "\n",
	`{"t":"cell","c":"x","res":"oops"}` + "\n",
	`{"t":"cell","c":"x","res":null}` + "\n",
	`{"t":"meta","v":1,"meta":{"tool":"test","seed":42,"samples":80}}` + "\n",
	`{"t":"meta","v":2,"meta":{"tool":"test","seed":42,"samples":80,"compose":"on"}}` + "\n",
	`{"t":"meta","v":3,"meta":{"tool":"test","seed":42,"samples":80,"compose":"on","checkpoint_every":100}}` + "\n",
	`{"t":"meta","v":3,"meta":{"tool":"test","seed":42,"samples":80,"mem_size":2097152}}` + "\n",
	`{"t":"meta","v":3,"meta":{"tool":"test","seed":42,"samples":80,"ci_width":0.02}}` + "\n",
}

// removedMetaFields are the meta fields older v3 builds wrote, with a
// value each: the forced checkpoint spacing K, the machine memory size and
// the CI width of early stopping.
var removedMetaFields = map[string]string{"checkpoint_every": "100", "mem_size": "2097152", "ci_width": "0.02"}

// TestJournalMetaRemovedFieldsRefused: a v3 journal whose meta carries a
// field this build no longer reads is refused by the loader, by resume and
// by ValidateRecords, with an error naming the field. Resumed silently, a
// composed journal cut at a forced K would merge plans of other sections.
// The same journal without the field loads.
func TestJournalMetaRemovedFieldsRefused(t *testing.T) {
	const plan = `{"t":"plan","c":"a","i":0,"o":0,"s":0}` + "\n"
	for field, value := range removedMetaFields {
		meta := `{"t":"meta","v":3,"meta":{"tool":"test","seed":42,"samples":80,"compose":"on","` +
			field + `":` + value + `}}` + "\n"
		path := journalPath(t)
		if err := os.WriteFile(path, []byte(meta+plan), 0o644); err != nil {
			t.Fatal(err)
		}
		want := `unknown field "` + field + `"`
		if _, err := LoadJournal(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: LoadJournal = %v, want an error naming the field", field, err)
		}
		if _, _, err := ResumeJournal(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: ResumeJournal = %v, want an error naming the field", field, err)
		}
		if _, err := ValidateRecords([]byte(meta + plan)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: ValidateRecords = %v, want an error naming the field", field, err)
		}
	}
	ok := `{"t":"meta","v":3,"meta":{"tool":"test","seed":42,"samples":80,"compose":"on"}}` + "\n" + plan
	if st, err := LoadJournalData([]byte(ok), "ok"); err != nil || st.Meta.Compose != "on" {
		t.Errorf("meta without removed fields: %+v, %v", st, err)
	}
}

// TestValidateRecordsMatchesLoader: ValidateRecords refuses every chunk
// the loader would refuse after it, so a coordinator that appends only
// validated chunks never makes its own shard journal unloadable; the
// records of a real journal pass both.
func TestValidateRecordsMatchesLoader(t *testing.T) {
	data := sampleJournal(t)
	meta, records, _ := bytes.Cut(data, []byte("\n"))
	meta = append(meta, '\n')
	if m, err := ValidateRecords(records); err != nil || m != nil {
		t.Fatalf("ValidateRecords on a journal's own records = %v, %v", m, err)
	}
	for _, chunk := range unloadableChunks {
		// Followed by a plan record, so the loader cannot take the bad
		// line for a torn tail.
		appended := append(append(append([]byte(nil), meta...), chunk...), records...)
		if _, err := LoadJournalData(appended, "appended"); err == nil {
			t.Errorf("loader accepted %q mid-stream", chunk)
		}
		if _, err := ValidateRecords([]byte(chunk)); err == nil {
			t.Errorf("ValidateRecords accepted %q, which makes the journal unloadable", chunk)
		}
	}
}

// otherMeta is a well-formed meta record of another configuration: what a
// chunk carrying it would swap a journal's configuration to.
const otherMeta = `{"t":"meta","v":3,"meta":{"tool":"other","seed":1,"samples":5}}` + "\n"

// TestJournalMetaOnlyFirst: a meta record anywhere but first cannot replace
// the journal's configuration. The loader refuses the journal, and
// ValidateRecords refuses a chunk with one past its first record; as the
// first record it is returned for the caller to check.
func TestJournalMetaOnlyFirst(t *testing.T) {
	data := sampleJournal(t)
	meta, records, _ := bytes.Cut(data, []byte("\n"))
	meta = append(meta, '\n')
	for name, journal := range map[string]string{
		"appended":     string(data) + otherMeta,
		"mid-stream":   string(meta) + otherMeta + string(records),
		"after a plan": `{"t":"plan","c":"a","i":0,"o":0,"s":0}` + "\n" + string(data),
	} {
		if st, err := LoadJournalData([]byte(journal), name); err == nil {
			t.Errorf("%s: journal with a second meta loaded, meta %+v", name, st.Meta)
		}
	}
	if _, err := ValidateRecords(append(append([]byte(nil), records...), otherMeta...)); err == nil {
		t.Error("ValidateRecords accepted a meta record after a plan record")
	}
	m, err := ValidateRecords(append(append([]byte(nil), meta...), records...))
	if err != nil || m == nil || m.Check(testMeta) != nil {
		t.Errorf("ValidateRecords on a whole journal = %+v, %v; want its meta", m, err)
	}
}

// FuzzValidateRecords: whatever chunk ValidateRecords accepts loads, and
// keeps the configuration it starts under. A chunk without a meta record,
// appended to a journal's meta record, loads with that meta; a chunk whose
// first record is a meta loads on its own with the meta returned.
func FuzzValidateRecords(f *testing.F) {
	data := sampleJournal(f)
	meta, records, _ := bytes.Cut(data, []byte("\n"))
	meta = append(meta, '\n')
	f.Add(records)
	f.Add(data)
	f.Add(append(append([]byte(nil), records...), otherMeta...))
	for _, chunk := range unloadableChunks {
		f.Add([]byte(chunk))
	}
	f.Fuzz(func(t *testing.T, chunk []byte) {
		m, err := ValidateRecords(chunk)
		if err != nil {
			return
		}
		journal, want := append(append([]byte(nil), meta...), chunk...), testMeta
		if m != nil {
			journal, want = chunk, *m
		}
		st, err := LoadJournalData(journal, "fuzz")
		if err != nil {
			t.Fatalf("validated chunk does not load: %v\n%s", err, chunk)
		}
		if !reflect.DeepEqual(st.Meta, want) {
			t.Fatalf("loaded meta %+v, want %+v\n%s", st.Meta, want, chunk)
		}
	})
}

// planJournalRecord is the journalRecord whose encoding/json encoding
// appendPlanRecord must reproduce byte for byte.
func planJournalRecord(key string, i int, rec PlanRecord) journalRecord {
	r := journalRecord{T: "plan", C: key, I: i, O: rec.Outcome, S: &rec.Site}
	if rec.HasLat {
		r.L = &rec.Lat
	}
	if rec.Fallback {
		r.FB = &rec.Fallback
	}
	return r
}

// checkPlanRecordAppend fails t unless appendPlanRecord writes exactly
// json.Marshal's line for the record, and fails exactly where it fails.
func checkPlanRecordAppend(t *testing.T, key string, i int, rec PlanRecord) {
	t.Helper()
	want, wantErr := json.Marshal(planJournalRecord(key, i, rec))
	got, err := appendPlanRecord([]byte("prefix"), key, quoteKey(key), i, rec)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("key %q i %d %+v: error %v, encoding/json's %v", key, i, rec, err, wantErr)
	}
	if err == nil && string(got) != "prefix"+string(want)+"\n" {
		t.Fatalf("key %q i %d %+v:\ngot  %s\nwant %s", key, i, rec, got[len("prefix"):], want)
	}
}

// TestPlanRecordAppend pins the plan record appender against encoding/json
// on the edges of its rules: omitted zero fields, HTML and control
// characters and invalid UTF-8 in keys, and floats on both sides of the
// exponent-form thresholds.
func TestPlanRecordAppend(t *testing.T) {
	keys := []string{"", "fig10/bfs/ferrum/asm", "<a&b>", "tab\tnl\n\"q\"\\", "\xff\xfe bad", "\u2028\u2029", "\x00\x1f\x7f", "é漢"}
	lats := []float64{0, math.Copysign(0, -1), 1, -2.5, 96.25, 1e-6, 9.99e-7, -1e-7, 1e-300,
		5e-324, math.SmallestNonzeroFloat64 * 3, 1e20, 1e21, -1e21, 123456789e15, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	for _, key := range keys {
		for _, i := range []int{0, 1, 17, -3, math.MaxInt64, math.MinInt64} {
			for _, o := range []Outcome{Benign, SDC, Hang, numOutcomes, 255} {
				for _, fb := range []bool{false, true} {
					checkPlanRecordAppend(t, key, i, PlanRecord{Site: uint64(i) * 3, Outcome: o, Fallback: fb})
					for _, l := range lats {
						checkPlanRecordAppend(t, key, i, PlanRecord{Site: math.MaxUint64, Lat: l, HasLat: true, Outcome: o, Fallback: fb})
					}
				}
			}
		}
	}
}

// FuzzPlanRecordAppend: the plan record appender writes what encoding/json
// writes for any key, index, outcome, site and latency.
func FuzzPlanRecordAppend(f *testing.F) {
	f.Add("fig10/bfs/ferrum/asm", 17, uint8(1), uint64(204), 96.0, true, false)
	f.Add("", 0, uint8(0), uint64(0), 0.0, false, false)
	f.Add("<script>&\xff", -1, uint8(255), uint64(math.MaxUint64), 1e21, true, true)
	f.Add("k", 3, uint8(2), uint64(7), 4.9e-324, true, false)
	f.Add("k", 3, uint8(2), uint64(7), math.Copysign(0, -1), true, false)
	f.Add("k", 3, uint8(2), uint64(7), 1.5e-7, true, false)
	f.Fuzz(func(t *testing.T, key string, i int, o uint8, site uint64, lat float64, hasLat, fb bool) {
		checkPlanRecordAppend(t, key, i, PlanRecord{Site: site, Lat: lat, HasLat: hasLat, Outcome: Outcome(o), Fallback: fb})
	})
}

// TestJournalMetaMismatch: resume must refuse a journal recorded under a
// different configuration — replayed outcomes from different plans would
// silently corrupt the tables.
func TestJournalMetaMismatch(t *testing.T) {
	other := testMeta
	other.Seed++
	if err := testMeta.Check(other); err == nil {
		t.Error("meta check accepted a different seed")
	}
	if err := testMeta.Check(testMeta); err != nil {
		t.Errorf("meta check rejected itself: %v", err)
	}
}

// TestJournalTornTail: a process killed mid-append leaves a truncated final
// record. Load drops it (TornDropped), resume truncates the file so appends
// stay line-aligned, and the dropped plan is simply absent — re-run, never
// double-counted.
func TestJournalTornTail(t *testing.T) {
	path := journalPath(t)
	j, err := CreateJournal(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	j.Plan("a", 0, PlanRecord{Outcome: Benign, Lat: 1, HasLat: true})
	j.Plan("a", 1, PlanRecord{Outcome: SDC, Site: 1, Lat: 2, HasLat: true})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: a half-written record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"plan","c":"a","i":2,"o"`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, j2, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.TornDropped {
		t.Error("torn tail not reported")
	}
	a := st.Cell("a")
	if a == nil || len(a.Plans) != 2 {
		t.Fatalf("plans after torn tail = %+v, want exactly the 2 complete records", a)
	}
	if _, ok := a.Plans[2]; ok {
		t.Error("torn record survived the load")
	}
	// Appending after resume lands on a clean line boundary.
	j2.Plan("a", 2, PlanRecord{Outcome: Hang, Site: 2, Lat: 3, HasLat: true})
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("journal unreadable after torn-tail resume: %v", err)
	}
	if st2.TornDropped {
		t.Error("resumed journal still reports a torn record")
	}
	a2 := st2.Cell("a")
	if len(a2.Plans) != 3 || a2.Plans[2].Outcome != Hang {
		t.Errorf("plans after resume append = %v, want 3 with plan 2 = hang", a2.Plans)
	}
}

// TestJournalMissingFinalNewline: a final record whose bytes are intact but
// whose newline never hit the disk is committed content, not a torn record
// to discard.
func TestJournalMissingFinalNewline(t *testing.T) {
	path := journalPath(t)
	j, err := CreateJournal(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	j.Plan("a", 0, PlanRecord{Outcome: Detected, Site: 5, Lat: 42, HasLat: true})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := strings.TrimSuffix(string(data), "\n")
	if err := os.WriteFile(path, []byte(trimmed), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.TornDropped {
		t.Error("missing final newline not flagged (resume must re-align the tail)")
	}
	if a := st.Cell("a"); a == nil || a.Plans[0].Outcome != Detected {
		t.Errorf("intact newline-less record dropped: %+v", a)
	}
	// A resumed run appends on a line of its own.
	_, j2, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j2.Plan("a", 1, PlanRecord{Outcome: Benign, Site: 6})
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("journal unreadable after resuming a newline-less tail: %v", err)
	}
	if a := st2.Cell("a"); len(a.Plans) != 2 || st2.TornDropped {
		t.Errorf("after resume: plans %v, torn %v; want 2 plans, no torn record", a.Plans, st2.TornDropped)
	}
}

// TestJournalMidFileCorruption: corruption before the tail poisons every
// record after it; load must fail loudly rather than resume from a lie.
func TestJournalMidFileCorruption(t *testing.T) {
	path := journalPath(t)
	j, err := CreateJournal(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	j.Plan("a", 0, PlanRecord{Outcome: Benign, Lat: 1, HasLat: true})
	j.Plan("a", 1, PlanRecord{Outcome: Benign, Site: 1, Lat: 1, HasLat: true})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[1] = "{\"t\":\"plan\",garbage\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJournal(path); err == nil {
		t.Fatal("mid-file corruption loaded without error")
	}
}

// TestJournalNoMeta: a journal without its meta record cannot be checked
// against the invocation, so it cannot be resumed.
func TestJournalNoMeta(t *testing.T) {
	path := journalPath(t)
	if err := os.WriteFile(path, []byte(`{"t":"plan","c":"a","i":0,"o":0,"s":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJournal(path); err == nil {
		t.Fatal("journal without meta loaded without error")
	}
}

// TestJournalDuplicatePlans: a journal may hold the same plan twice in
// one file; the last record wins (outcomes are deterministic, so they
// agree anyway) and the plan is counted once.
func TestJournalDuplicatePlans(t *testing.T) {
	path := journalPath(t)
	j, err := CreateJournal(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	j.Plan("a", 0, PlanRecord{Outcome: Benign, Lat: 4, HasLat: true})
	j.Plan("a", 0, PlanRecord{Outcome: Benign, Lat: 4, HasLat: true})
	j.Plan("a", 1, PlanRecord{Outcome: SDC, Site: 1, Lat: 2, HasLat: true})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if a := st.Cell("a"); len(a.Plans) != 2 {
		t.Errorf("duplicate plan records double-counted: %v", a.Plans)
	}
}

// TestJournalVersionRefused: a journal from an older schema must be refused
// with an actionable error naming both versions — never decoded on a guess
// and never a panic. (v1 lacked the per-plan "s"/"l" fields and latency in
// cell results; replaying it would silently drop telemetry. A v2 composed
// journal indexes plans of sections cut at the old auto K; resuming it
// would merge outcomes of other plans.)
func TestJournalVersionRefused(t *testing.T) {
	for v, meta := range map[int]string{
		1: `{"t":"meta","v":1,"meta":{"tool":"test","seed":42,"samples":80}}`,
		2: `{"t":"meta","v":2,"meta":{"tool":"test","seed":42,"samples":80,"compose":"on"}}`,
	} {
		path := journalPath(t)
		old := meta + "\n" + `{"t":"plan","c":"a","i":0,"o":0,"s":0}` + "\n"
		if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadJournal(path)
		if err == nil {
			t.Fatalf("v%d journal loaded without error", v)
		}
		for _, needle := range []string{fmt.Sprintf("schema v%d", v), fmt.Sprintf("reads v%d", journalVersion), "re-run"} {
			if !strings.Contains(err.Error(), needle) {
				t.Errorf("version error %q missing %q", err, needle)
			}
		}
		if _, _, err := ResumeJournal(path); err == nil {
			t.Errorf("v%d journal resumed without error", v)
		}
	}
}

// TestJournalV2ResumeByteIdentical: closing and resuming a journal with the
// latency fields schema v2 added, then appending nothing, must leave the
// file byte-identical — resume truncates only torn tails, never rewrites
// committed records (latency fields included).
func TestJournalV2ResumeByteIdentical(t *testing.T) {
	path := journalPath(t)
	j, err := CreateJournal(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	j.Plan("a", 0, PlanRecord{Outcome: Detected, Site: 10, Lat: 128.5, HasLat: true})
	j.Plan("a", 1, PlanRecord{Outcome: Benign, Site: 11})
	var res Result
	res.Samples = 2
	res.Counts[Detected] = 1
	res.Counts[Benign] = 1
	res.Latency.Unit = "cycles"
	res.Latency.Observe(Detected, 128.5)
	j.Cell("a", res)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, j2, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Errorf("resume rewrote committed bytes:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	// The replayed state carries the v2 fields intact.
	a := st.Cell("a")
	if want := (PlanRecord{Outcome: Detected, Site: 10, Lat: 128.5, HasLat: true}); a.Plans[0] != want {
		t.Errorf("v2 fields lost on resume: plan 0 = %+v, want %+v", a.Plans[0], want)
	}
	if a.Plans[1].HasLat {
		t.Error("uninjected plan gained a latency on replay")
	}
	if a.Result == nil || a.Result.Latency.Unit != "cycles" || a.Result.Latency.N() != 1 {
		t.Errorf("cell latency summary lost on resume: %+v", a.Result)
	}
}

// TestJournalNilSafety: campaigns without a journal call the same methods;
// every one of them must be a no-op on a nil receiver.
func TestJournalNilSafety(t *testing.T) {
	var j *Journal
	j.Plan("a", 0, PlanRecord{Outcome: Benign})
	j.Cell("a", Result{})
	j.Observe(nil)
	if err := j.Sync(); err != nil {
		t.Errorf("nil Sync = %v", err)
	}
	if err := j.Err(); err != nil {
		t.Errorf("nil Err = %v", err)
	}
	if err := j.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}
}
