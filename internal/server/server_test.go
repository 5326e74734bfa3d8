package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sitm/internal/store"
)

// newTestServer spins up a Server over st behind httptest.
func newTestServer(t *testing.T, st *store.Store, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(st, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// postJSON posts body and decodes the response into out (when non-nil),
// returning the status code and, for errors, the envelope.
func postJSON(t *testing.T, url, contentType, body string, out any) (int, errorEnvelope) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errorEnvelope
	if resp.StatusCode >= 300 {
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("status %d with undecodable error envelope: %v", resp.StatusCode, err)
		}
	} else if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, env
}

const seedCSV = "mo,cell,start,end\n" +
	"mo-1,hall,2019-05-01T10:00:00Z,2019-05-01T10:05:00Z\n" +
	"mo-1,atrium,2019-05-01T10:05:00Z,2019-05-01T10:10:00Z\n" +
	"mo-2,hall,2019-05-01T11:00:00Z,2019-05-01T11:02:00Z\n"

func TestIngestThenQuery(t *testing.T) {
	_, ts := newTestServer(t, store.NewSharded(2), Config{})

	var ing ingestResponse
	code, _ := postJSON(t, ts.URL+"/v1/ingest", "text/csv", seedCSV, &ing)
	if code != 200 {
		t.Fatalf("ingest status = %d", code)
	}
	if ing.Rows != 3 || !ing.Synced {
		t.Fatalf("ingest response = %+v", ing)
	}

	var qr queryResponse
	code, _ = postJSON(t, ts.URL+"/v1/query", "application/json",
		`{"query": {"cell": "hall"}, "mos_only": true}`, &qr)
	if code != 200 {
		t.Fatalf("query status = %d", code)
	}
	if qr.Count != 2 || len(qr.MOs) != 2 {
		t.Fatalf("query response = %+v, want both MOs", qr)
	}

	// Full-trajectory form with a composite query.
	qr = queryResponse{}
	code, _ = postJSON(t, ts.URL+"/v1/query", "application/json",
		`{"query": {"and": [{"cell": "hall"}, {"time_overlap": {"from": "2019-05-01T10:00:00Z", "to": "2019-05-01T10:30:00Z"}}]}}`, &qr)
	if code != 200 || qr.Count != 1 || qr.Trajectories[0].MO != "mo-1" {
		t.Fatalf("composite query = %d %+v", code, qr)
	}
}

func TestTypedErrors(t *testing.T) {
	_, ts := newTestServer(t, store.NewSharded(2), Config{})

	cases := []struct {
		name, path, body string
		wantStatus       int
		wantCode         string
	}{
		{"malformed body", "/v1/query", `{"query": `, 400, codeBadRequest},
		{"missing query", "/v1/query", `{}`, 400, codeBadRequest},
		{"unknown operator", "/v1/query", `{"query": {"frobnicate": 1}}`, 400, codeBadRequest},
		{"two operator keys", "/v1/query", `{"query": {"cell": "a", "by_mo": "b"}}`, 400, codeBadRequest},
		{"bad timestamp", "/v1/query", `{"query": {"time_overlap": {"from": "yesterday", "to": "today"}}}`, 400, codeBadRequest},
		{"headerless csv", "/v1/ingest", "mo-1,hall,2019-05-01T10:00:00Z,2019-05-01T10:05:00Z\n", 400, codeBadRequest},
	}
	for _, tc := range cases {
		code, env := postJSON(t, ts.URL+tc.path, "application/json", tc.body, nil)
		if code != tc.wantStatus || env.Error.Code != tc.wantCode {
			t.Errorf("%s: got %d/%q, want %d/%q", tc.name, code, env.Error.Code, tc.wantStatus, tc.wantCode)
		}
		if env.Error.Retryable {
			t.Errorf("%s: client errors must not be retryable", tc.name)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown route status = %d", resp.StatusCode)
	}
}

func TestQueryDepthLimit(t *testing.T) {
	_, ts := newTestServer(t, store.NewSharded(1), Config{})
	deep := `{"cell": "a"}`
	for i := 0; i < maxQueryDepth+2; i++ {
		deep = `{"and": [` + deep + `]}`
	}
	code, env := postJSON(t, ts.URL+"/v1/query", "application/json", `{"query": `+deep+`}`, nil)
	if code != 400 || env.Error.Code != codeBadRequest {
		t.Fatalf("over-deep query = %d/%q, want 400/bad_request", code, env.Error.Code)
	}
}

func TestFingerprintCanonicalization(t *testing.T) {
	// Two spellings of the same instant must share a fingerprint...
	_, fpA, err := decodeQuery([]byte(`{"time_overlap": {"from": "2019-05-01T10:00:00Z", "to": "2019-05-01T11:00:00Z"}}`))
	if err != nil {
		t.Fatal(err)
	}
	_, fpB, err := decodeQuery([]byte(`{"time_overlap": {"from": "2019-05-01T12:00:00+02:00", "to": "2019-05-01T11:00:00-00:00"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpB {
		t.Fatalf("equivalent instants fingerprint differently:\n%s\n%s", fpA, fpB)
	}
	// ...and different operands must not.
	_, fpC, err := decodeQuery([]byte(`{"cell": "hall"}`))
	if err != nil {
		t.Fatal(err)
	}
	_, fpD, err := decodeQuery([]byte(`{"by_mo": "hall"}`))
	if err != nil {
		t.Fatal(err)
	}
	if fpC == fpD {
		t.Fatal("cell and by_mo with the same operand collided")
	}
}

func getStats(t *testing.T, url string) statsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPlanCacheHitAndInvalidation(t *testing.T) {
	_, ts := newTestServer(t, store.NewSharded(2), Config{})
	postJSON(t, ts.URL+"/v1/ingest", "text/csv", seedCSV, nil)

	q := `{"query": {"cell": "hall"}, "mos_only": true}`
	var first, second queryResponse
	postJSON(t, ts.URL+"/v1/query", "application/json", q, &first)
	postJSON(t, ts.URL+"/v1/query", "application/json", q, &second)
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags = %v, %v; want false, true", first.Cached, second.Cached)
	}
	st := getStats(t, ts.URL)
	if st.PlanCache == nil || st.PlanCache.Hits < 1 {
		t.Fatalf("plan cache stats = %+v, want >= 1 hit", st.PlanCache)
	}

	// Growing the cell alphabet rotates the dict snapshot: the cached
	// plan must be invalidated, recompiled, and the query must see rows
	// matched through the NEW symbol (the stale empty-plan hazard).
	grow := "mo,cell,start,end\nmo-3,hall,2019-05-02T10:00:00Z,2019-05-02T10:05:00Z\nmo-3,newwing,2019-05-02T10:05:00Z,2019-05-02T10:06:00Z\n"
	postJSON(t, ts.URL+"/v1/ingest", "text/csv", grow, nil)

	var third queryResponse
	postJSON(t, ts.URL+"/v1/query", "application/json", q, &third)
	if third.Cached {
		t.Fatal("query served from cache across a dictionary rotation")
	}
	if third.Count != 3 {
		t.Fatalf("post-growth query count = %d, want 3", third.Count)
	}
	st = getStats(t, ts.URL)
	if st.PlanCache.Invalidations < 1 {
		t.Fatalf("invalidations = %d, want >= 1", st.PlanCache.Invalidations)
	}

	// A brand-new symbol queried before it exists compiles to an empty
	// plan; after it arrives, the same query must find it.
	futureQ := `{"query": {"cell": "future-room"}, "mos_only": true}`
	var empty queryResponse
	postJSON(t, ts.URL+"/v1/query", "application/json", futureQ, &empty)
	if empty.Count != 0 {
		t.Fatalf("unknown cell matched %d MOs", empty.Count)
	}
	postJSON(t, ts.URL+"/v1/ingest", "text/csv",
		"mo,cell,start,end\nmo-9,future-room,2019-05-03T10:00:00Z,2019-05-03T10:05:00Z\nmo-9,hall,2019-05-03T10:05:00Z,2019-05-03T10:06:00Z\n", nil)
	var found queryResponse
	postJSON(t, ts.URL+"/v1/query", "application/json", futureQ, &found)
	if found.Count != 1 || found.MOs[0] != "mo-9" {
		t.Fatalf("stale empty plan served after symbol arrived: %+v", found)
	}
}

func TestCacheDisabled(t *testing.T) {
	_, ts := newTestServer(t, store.NewSharded(1), Config{PlanCacheSize: -1})
	postJSON(t, ts.URL+"/v1/ingest", "text/csv", seedCSV, nil)
	q := `{"query": {"cell": "hall"}, "mos_only": true}`
	var a, b queryResponse
	postJSON(t, ts.URL+"/v1/query", "application/json", q, &a)
	postJSON(t, ts.URL+"/v1/query", "application/json", q, &b)
	if a.Cached || b.Cached {
		t.Fatal("caching disabled but a response claimed cached")
	}
	if a.Count != b.Count || a.Count != 2 {
		t.Fatalf("uncached counts = %d, %d", a.Count, b.Count)
	}
	if st := getStats(t, ts.URL); st.PlanCache != nil {
		t.Fatal("stats advertise a plan cache that does not exist")
	}
}

func TestDeadlineHeader(t *testing.T) {
	srv, ts := newTestServer(t, store.NewSharded(1), Config{})
	srv.cfg.testDelay = 200 * time.Millisecond

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query",
		strings.NewReader(`{"query": {"cell": "hall"}}`))
	req.Header.Set("X-Sitm-Timeout", "30")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 504 || env.Error.Code != codeDeadline {
		t.Fatalf("deadline response = %d/%q, want 504/deadline_exceeded", resp.StatusCode, env.Error.Code)
	}
}

func TestHealthz(t *testing.T) {
	srv, ts := newTestServer(t, store.NewSharded(1), Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	srv.draining.Store(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
}

// TestTimesOutsideNanosRange covers times UnixNano cannot represent
// (before 1677-09-21 or after 2262-04-11) at both ends of the daemon: an
// ingest body holding one is a 400 that stores and acks nothing, and
// window edges in any year answer like the time comparisons they stand
// for on a checkpointed store — including two windows whose UnixNano
// values collide, which must not share a plan-cache entry.
func TestTimesOutsideNanosRange(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := newTestServer(t, st, Config{})
	if code, _ := postJSON(t, ts.URL+"/v1/ingest", "text/csv", seedCSV, nil); code != 200 {
		t.Fatalf("seed ingest status = %d", code)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	bad := "mo,cell,start,end\n" +
		"mo-3,hall,2019-05-01T12:00:00Z,2019-05-01T12:05:00Z\n" +
		"mo-3,atrium,3000-05-01T12:05:00Z,3000-05-01T12:10:00Z\n"
	code, env := postJSON(t, ts.URL+"/v1/ingest", "text/csv", bad, nil)
	if code != 400 || env.Error.Code != codeBadRequest || !strings.Contains(env.Error.Message, "csv row 3") {
		t.Fatalf("ingest of a year-3000 row = %d %+v, want 400 naming row 3", code, env)
	}
	if n := st.Len(); n != 2 {
		t.Fatalf("rejected ingest changed the store: %d trajectories, want 2", n)
	}

	// 3000-01-01T00:00:00Z and 1830-11-23T00:50:52.580896768Z share a
	// UnixNano; the second window is empty (it ends before it starts).
	for _, tc := range []struct {
		from, to string
		want     int
	}{
		{"0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z", 2},
		{"1000-01-01T00:00:00Z", "2100-01-01T00:00:00Z", 2},
		{"2000-01-01T00:00:00Z", "3000-01-01T00:00:00Z", 2},
		{"2000-01-01T00:00:00Z", "1830-11-23T00:50:52.580896768Z", 0},
		{"3000-01-01T00:00:00Z", "3100-01-01T00:00:00Z", 0},
	} {
		for _, body := range []string{
			`{"query": {"time_overlap": {"from": "` + tc.from + `", "to": "` + tc.to + `"}}, "mos_only": true}`,
			`{"query": {"cell_during": {"cell": "hall", "from": "` + tc.from + `", "to": "` + tc.to + `"}}, "mos_only": true}`,
		} {
			var qr queryResponse
			if code, env := postJSON(t, ts.URL+"/v1/query", "application/json", body, &qr); code != 200 {
				t.Fatalf("%s: status %d %+v", body, code, env)
			}
			if qr.Count != tc.want {
				t.Fatalf("%s: %d MOs, want %d", body, qr.Count, tc.want)
			}
		}
	}
}
