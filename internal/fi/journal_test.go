package fi

import (
	"bytes"
	"os"
	"path/filepath"
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
	j.Plan("a", 0, Benign, 10, 128, true, false)
	j.Plan("a", 3, SDC, 11, 0, false, false)
	j.Plan("b", 1, Crash, 12, 7, true, false)
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
	if a.Plans[0] != Benign || a.Plans[3] != SDC {
		t.Errorf("cell a plans = %v", a.Plans)
	}
	b := st.Cell("b")
	if b == nil || b.Result != nil || b.Plans[1] != Crash {
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
// WriteCanonical writes the same bytes twice.
func FuzzJournalLoad(f *testing.F) {
	path := filepath.Join(f.TempDir(), "campaign.ndjson")
	j, err := CreateJournal(path, testMeta)
	if err != nil {
		f.Fatal(err)
	}
	j.Plan("a", 0, Benign, 10, 128, true, false)
	j.Plan("a", 3, SDC, 11, 0, false, false)
	j.Plan("b", 1, Crash, 12, 7, true, true)
	j.Cell("a", Result{Samples: 2, Counts: [numOutcomes]int{Benign: 1, SDC: 1}, DynSites: 9})
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
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
	j.Plan("a", 0, Benign, 0, 1, true, false)
	j.Plan("a", 1, SDC, 1, 2, true, false)
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
	j2.Plan("a", 2, Hang, 2, 3, true, false)
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
	if len(a2.Plans) != 3 || a2.Plans[2] != Hang {
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
	j.Plan("a", 0, Detected, 5, 42, true, false)
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
	if a := st.Cell("a"); a == nil || a.Plans[0] != Detected {
		t.Errorf("intact newline-less record dropped: %+v", a)
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
	j.Plan("a", 0, Benign, 0, 1, true, false)
	j.Plan("a", 1, Benign, 1, 1, true, false)
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
	if err := os.WriteFile(path, []byte(`{"t":"plan","c":"a","i":0,"o":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJournal(path); err == nil {
		t.Fatal("journal without meta loaded without error")
	}
}

// TestJournalDuplicatePlans: a retried cell may journal the same plan twice
// in one file; the last record wins (outcomes are deterministic, so they
// agree anyway) and the plan is counted once.
func TestJournalDuplicatePlans(t *testing.T) {
	path := journalPath(t)
	j, err := CreateJournal(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	j.Plan("a", 0, Benign, 0, 4, true, false)
	j.Plan("a", 0, Benign, 0, 4, true, false)
	j.Plan("a", 1, SDC, 1, 2, true, false)
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
// cell results; replaying it would silently drop telemetry.)
func TestJournalVersionRefused(t *testing.T) {
	path := journalPath(t)
	v1 := `{"t":"meta","v":1,"meta":{"tool":"test","seed":42,"samples":80}}
{"t":"plan","c":"a","i":0,"o":0}
`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadJournal(path)
	if err == nil {
		t.Fatal("v1 journal loaded without error")
	}
	for _, needle := range []string{"schema v1", "v2", "re-run"} {
		if !strings.Contains(err.Error(), needle) {
			t.Errorf("version error %q missing %q", err, needle)
		}
	}
	if _, _, err := ResumeJournal(path); err == nil {
		t.Error("v1 journal resumed without error")
	}
}

// TestJournalV2ResumeByteIdentical: closing and resuming a v2 journal, then
// appending nothing, must leave the file byte-identical — resume truncates
// only torn tails, never rewrites committed records (latency fields
// included).
func TestJournalV2ResumeByteIdentical(t *testing.T) {
	path := journalPath(t)
	j, err := CreateJournal(path, testMeta)
	if err != nil {
		t.Fatal(err)
	}
	j.Plan("a", 0, Detected, 10, 128.5, true, false)
	j.Plan("a", 1, Benign, 11, 0, false, false)
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
	if a.PlanLats[0] != 128.5 || a.PlanSites[0] != 10 {
		t.Errorf("v2 fields lost on resume: lats=%v sites=%v", a.PlanLats, a.PlanSites)
	}
	if _, ok := a.PlanLats[1]; ok {
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
	j.Plan("a", 0, Benign, 0, 0, false, false)
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
