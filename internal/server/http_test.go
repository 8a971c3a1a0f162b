package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHTTPAPI(t *testing.T) {
	db := openTPCH(t, 0.005)
	s := newServer(t, db, Config{Slots: 1, Policy: SuspensionAware{}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, sessionResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr sessionResponse
		_ = json.NewDecoder(resp.Body).Decode(&sr)
		return resp, sr
	}

	// Synchronous query with inlined result.
	resp, sr := post(`{"sql":"SELECT count(*) AS n FROM region","wait":true,"priority":"interactive"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if sr.State != StateDone || sr.Result == nil || sr.Result.NumRows != 1 {
		t.Fatalf("session = %+v", sr)
	}
	if sr.Result.Rows[0][0] != "5" {
		t.Errorf("count(*) over region = %v", sr.Result.Rows)
	}

	// Async submission, then poll the session endpoint.
	resp, sr = post(`{"tpch":6}`)
	if resp.StatusCode != http.StatusOK || sr.ID == "" {
		t.Fatalf("async submit: status=%d session=%+v", resp.StatusCode, sr)
	}
	get := func(path string) *http.Response {
		t.Helper()
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := get("/sessions/" + sr.ID)
	if r.StatusCode != http.StatusOK {
		t.Errorf("session fetch status = %d", r.StatusCode)
	}
	r.Body.Close()

	// Error mapping.
	if r, _ := post(`{"sql":"SELECT bogus FROM lineitem"}`); r.StatusCode != http.StatusBadRequest {
		t.Errorf("compile error status = %d", r.StatusCode)
	}
	if r, _ := post(`{}`); r.StatusCode != http.StatusBadRequest {
		t.Errorf("empty request status = %d", r.StatusCode)
	}
	r = get("/sessions/nope")
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session status = %d", r.StatusCode)
	}
	r.Body.Close()

	// Listing, metrics, traces.
	r = get("/sessions")
	var infos []Info
	if err := json.NewDecoder(r.Body).Decode(&infos); err != nil || len(infos) < 2 {
		t.Errorf("sessions listing: %v (%d entries)", err, len(infos))
	}
	r.Body.Close()
	r = get("/metrics")
	var snap map[string]any
	if err := json.NewDecoder(r.Body).Decode(&snap); err != nil {
		t.Errorf("metrics JSON: %v", err)
	}
	r.Body.Close()
	r = get("/metrics?format=text")
	if r.StatusCode != http.StatusOK {
		t.Errorf("metrics text status = %d", r.StatusCode)
	}
	r.Body.Close()
	r = get("/traces")
	var traces []json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&traces); err != nil {
		t.Errorf("traces JSON: %v", err)
	}
	r.Body.Close()
	r = get("/healthz")
	if r.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", r.StatusCode)
	}
	r.Body.Close()
}

// TestHTTPIllTypedSQLIsRefusedAtSubmit: a statement with an operand of the
// wrong type is a 400 at POST /query and creates no session — it used to be
// admitted, queued, scheduled and failed on its first morsel — and a GROUP BY
// over nine columns, which used to panic the run goroutine, runs.
func TestHTTPIllTypedSQLIsRefusedAtSubmit(t *testing.T) {
	db := openTPCH(t, 0.005)
	s := newServer(t, db, Config{Slots: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(sql string) (int, sessionResponse) {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"sql": sql, "wait": true})
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr sessionResponse
		_ = json.NewDecoder(resp.Body).Decode(&sr)
		return resp.StatusCode, sr
	}
	for _, sql := range []string{
		"SELECT count(*) FROM lineitem WHERE NOT l_quantity",
		"SELECT count(*) FROM lineitem WHERE l_quantity LIKE 'a%'",
		"SELECT count(*) FROM lineitem WHERE l_quantity AND l_tax",
		"SELECT extract(year FROM l_quantity) FROM lineitem",
		"SELECT CASE WHEN l_quantity THEN 1 ELSE 2 END FROM lineitem",
		"SELECT count(*) FROM lineitem WHERE l_quantity",
	} {
		if status, sr := post(sql); status != http.StatusBadRequest || sr.ID != "" {
			t.Errorf("%q: status %d, session %q; want 400 and no session", sql, status, sr.ID)
		}
	}
	if n := len(s.Sessions()); n != 0 {
		t.Errorf("%d sessions were created for statements that cannot run", n)
	}
	status, sr := post(`SELECT l_returnflag, l_linestatus, l_shipmode, l_shipinstruct, l_linenumber,
		l_quantity, l_discount, l_tax, l_suppkey, count(*) AS n FROM lineitem WHERE l_orderkey < 100
		GROUP BY l_returnflag, l_linestatus, l_shipmode, l_shipinstruct, l_linenumber,
		l_quantity, l_discount, l_tax, l_suppkey`)
	if status != http.StatusOK || sr.State != StateDone || sr.Result == nil || sr.Result.NumRows == 0 {
		t.Errorf("nine-column GROUP BY: status %d, session %+v", status, sr)
	}
}

// TestHTTPHealthzDraining proves a draining instance answers /healthz
// with 503 *and* its full health document — "refusing new work" must be
// distinguishable from "dead" by any prober.
func TestHTTPHealthzDraining(t *testing.T) {
	db := openTPCH(t, 0.005)
	s := newServer(t, db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.draining.Store(true)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status = %d, want 503", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("draining healthz body: %v", err)
	}
	if h.Status != "draining" {
		t.Errorf("draining healthz body status = %q", h.Status)
	}
}

func TestHTTPAdmissionReject(t *testing.T) {
	db := openTPCH(t, 0.005)
	s := newServer(t, db, Config{MemoryBudget: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"tpch":21}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("rejected submission status = %d", resp.StatusCode)
	}
}

func TestParsePriority(t *testing.T) {
	cases := map[string]Priority{
		"":            Normal,
		"normal":      Normal,
		"batch":       Batch,
		"low":         Batch,
		"interactive": Interactive,
		"high":        Interactive,
		"15":          Priority(15),
	}
	for in, want := range cases {
		got, err := ParsePriority(in)
		if err != nil || got != want {
			t.Errorf("ParsePriority(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePriority("garbage"); err == nil {
		t.Error("garbage priority must error")
	}
	if Interactive.String() != "interactive" || Priority(7).String() != "7" {
		t.Error("priority rendering")
	}
}
