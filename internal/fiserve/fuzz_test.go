package fiserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ferrum/internal/harness"
)

// serve sends one request straight to the coordinator's handlers, so a
// handler panic fails the test instead of being recovered by a server.
func serve(mux *http.ServeMux, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// submitAndStatus submits a valid campaign and reads its status back.
func submitAndStatus(t *testing.T, mux *http.ServeMux) string {
	t.Helper()
	body, err := json.Marshal(SubmitRequest{Tenant: "t", Spec: testSpec("bfs", harness.Raw, 8)})
	if err != nil {
		t.Fatal(err)
	}
	rec := serve(mux, http.MethodPost, "/api/submit", string(body))
	var sr SubmitResponse
	if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &sr) != nil || sr.ID == "" {
		t.Fatalf("valid submit: %d %s", rec.Code, rec.Body)
	}
	rec = serve(mux, http.MethodGet, "/api/campaigns/"+sr.ID, "")
	var st CampaignStatus
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil || st.ID != sr.ID {
		t.Fatalf("status of %s: %d %s", sr.ID, rec.Code, rec.Body)
	}
	return sr.ID
}

// FuzzCoordinatorRequests posts one arbitrary body to every POST endpoint
// of a coordinator holding a leased campaign. No body may panic a handler,
// and afterwards a valid submit and a status request must still succeed.
func FuzzCoordinatorRequests(f *testing.F) {
	for _, s := range []string{
		``,
		`null`,
		`{}`,
		`{"worker":"w"}`,
		`{"worker":"w"} {"worker":"x"}`,
		`{"worker":"w"}garbage`,
		`{"tenant":"t","spec":{"bench":"bfs","technique":"raw","level":"asm","samples":8}}`,
		`{"tenant":"t","spec":{"bench":"../x","technique":"raw","level":"asm","samples":8}}`,
		`{"campaign":"c001-bfs-raw-asm","shard":0,"epoch":1,"done":3}`,
		`{"campaign":"c001-bfs-raw-asm","shard":0,"epoch":1,"error":"boom"}`,
		`{"campaign":"c001-bfs-raw-asm","shard":0,"epoch":1,"result":{"Samples":8}}`,
		`{"campaign":"c001-bfs-raw-asm","shard":-1,"epoch":1}`,
		"{\"type\":\"meta\"}\n{\"type\":\"plan\"}\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		co, err := newCoordinator(Config{Dir: t.TempDir(), Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		co.routes(mux)
		id := submitAndStatus(t, mux)
		rec := serve(mux, http.MethodPost, "/api/lease", `{"worker":"w"}`)
		var lr LeaseResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &lr) != nil || lr.Lease == nil {
			t.Fatalf("lease: %d %s", rec.Code, rec.Body)
		}
		records := fmt.Sprintf("/api/records?campaign=%s&shard=%d&epoch=%d", id, lr.Lease.Shard, lr.Lease.Epoch)
		for _, path := range []string{"/api/submit", "/api/lease", records,
			"/api/heartbeat", "/api/complete", "/api/release"} {
			if rec := serve(mux, http.MethodPost, path, body); rec.Code >= 500 {
				t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
			}
		}
		submitAndStatus(t, mux)
	})
}

// TestReadJSONRejectsTrailingData: a request body holds exactly one JSON
// value; trailing white space is fine, anything else is a 400.
func TestReadJSONRejectsTrailingData(t *testing.T) {
	co, err := newCoordinator(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	co.routes(mux)
	for body, want := range map[string]int{
		`{"worker":"w"}`:                http.StatusOK,
		"{\"worker\":\"w\"}\n \t":       http.StatusOK,
		`{"worker":"w"}x`:               http.StatusBadRequest,
		`{"worker":"w"} {"worker":"x"}`: http.StatusBadRequest,
		`{"worker":"w"}]`:               http.StatusBadRequest,
		`{"worker":"w"`:                 http.StatusBadRequest,
		``:                              http.StatusBadRequest,
	} {
		if rec := serve(mux, http.MethodPost, "/api/lease", body); rec.Code != want {
			t.Errorf("POST /api/lease %q: %d, want %d", body, rec.Code, want)
		}
	}
}
