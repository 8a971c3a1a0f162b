package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"
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

// getSession GETs a session path and returns the status and raw body.
func getSession(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, body
}

// waiters reads a session's in-flight waiter count.
func waiters(s *Server, sess *Session) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sess.waiters
}

// TestHTTPHoldParam pins ?wait= validation: a bad or negative duration is
// a 400 (even for an unknown session), a hold above MaxHold is clamped,
// and an absent or zero wait answers today's envelope byte for byte.
func TestHTTPHoldParam(t *testing.T) {
	db := openTPCH(t, 0.005)
	s := newServer(t, db, Config{Slots: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sess, err := s.Submit(Request{TPCH: 6, Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), sess.ID()); err != nil {
		t.Fatal(err)
	}
	_, plain := getSession(t, ts.URL+"/sessions/"+sess.ID())

	for _, tc := range []struct {
		wait   string
		hold   time.Duration
		status int
	}{
		{"", 0, http.StatusOK},
		{"0", 0, http.StatusOK},
		{"0s", 0, http.StatusOK},
		{"250ms", 250 * time.Millisecond, http.StatusOK},
		{"30s", MaxHold, http.StatusOK},
		{"10m", MaxHold, http.StatusOK},
		{"-1s", 0, http.StatusBadRequest},
		{"soon", 0, http.StatusBadRequest},
		{"5", 0, http.StatusBadRequest},
	} {
		query := ""
		if tc.wait != "" {
			query = "?wait=" + tc.wait
		}
		hold, err := ParseHold(httptest.NewRequest(http.MethodGet, "/sessions/x"+query, nil))
		if (err != nil) != (tc.status == http.StatusBadRequest) || hold != tc.hold {
			t.Errorf("ParseHold(%q) = %v, %v; want hold %v", tc.wait, hold, err, tc.hold)
		}
		for _, path := range []string{"/sessions/" + sess.ID(), "/sessions/key/k"} {
			status, body := getSession(t, ts.URL+path+query)
			if status != tc.status {
				t.Errorf("GET %s%s: status %d, want %d", path, query, status, tc.status)
			}
			// A done session answers a held read at once with the same
			// envelope as an unheld one.
			if status == http.StatusOK && string(body) != string(plain) {
				t.Errorf("GET %s%s: envelope differs from the plain read:\n%s\nvs\n%s", path, query, body, plain)
			}
		}
		if status, _ := getSession(t, ts.URL+"/sessions/nope"+query); tc.status == http.StatusBadRequest && status != http.StatusBadRequest {
			t.Errorf("unknown session with wait=%q: status %d, want 400", tc.wait, status)
		}
	}
}

// TestHTTPHeldReadReturnsDone: a held read on a session that cannot run
// yet stays held — as a waiter — until the session is let run, then
// answers done with the result inlined. Ordering only, no clock.
func TestHTTPHeldReadReturnsDone(t *testing.T) {
	db := openTPCH(t, 0.005)
	s := newServer(t, db, Config{Slots: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	release := holdSlots(s)
	sess, err := s.Submit(Request{SQL: "SELECT count(*) AS n FROM region", Key: "held"})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	go func() {
		_, body := getSession(t, ts.URL+"/sessions/key/held?wait=30s")
		got <- body
	}()
	waitCond(t, 10*time.Second, "the read to be held", func() bool { return waiters(s, sess) == 1 })
	select {
	case body := <-got:
		t.Fatalf("held read answered while the session could not run: %s", body)
	default:
	}
	if in, _ := s.Info(sess.ID()); in.State != StateQueued {
		t.Fatalf("session state %s before release, want queued", in.State)
	}
	release()
	var sr sessionResponse
	if err := json.Unmarshal(<-got, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.State != StateDone || sr.Result == nil || len(sr.Result.Rows) != 1 || sr.Result.Rows[0][0] != "5" {
		t.Fatalf("held read answered %+v, want done with count 5 inlined", sr)
	}
	if n := waiters(s, sess); n != 0 {
		t.Errorf("%d waiters left after the held read answered", n)
	}
}

// TestHTTPHoldsReleasedOnStop: every HTTP-side hold — a GET ?wait= and a
// POST /query {"wait":true}, which has no expiry at all — answers the
// current, non-terminal snapshot as soon as the server starts stopping,
// whichever way it stops — including an http.Server shutting down with
// ReleaseHolds registered, as riveter-serve does: http.Server.Shutdown
// never cancels a request, so without it Shutdown would sit out every
// hold. The POST would otherwise hang the test; the GET must answer
// before its own 30s hold could have expired.
func TestHTTPHoldsReleasedOnStop(t *testing.T) {
	db := openTPCH(t, 0.005)
	for _, stop := range []struct {
		name string
		fn   func(*Server, *http.Server) error
	}{
		{"drain", func(s *Server, _ *http.Server) error { return s.Drain(context.Background()) }},
		{"shutdown", func(s *Server, _ *http.Server) error { return s.Shutdown(context.Background()) }},
		{"kill", func(s *Server, _ *http.Server) error { s.Kill(); return nil }},
		{"http-shutdown", func(_ *Server, hs *http.Server) error {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			return hs.Shutdown(ctx) // waits for both handlers to answer
		}},
	} {
		t.Run(stop.name, func(t *testing.T) {
			s := newServer(t, db, Config{Slots: 1, StatePath: filepath.Join(t.TempDir(), "state.json")})
			ts := httptest.NewUnstartedServer(s.Handler())
			ts.Config.RegisterOnShutdown(s.ReleaseHolds)
			ts.Start()
			defer ts.Close()
			defer s.ReleaseHolds() // first: a failed stop must not leave Close waiting on a hold
			holdSlots(s)           // never released: only the stop can end these holds
			held, err := s.Submit(Request{TPCH: 6, Key: "held"})
			if err != nil {
				t.Fatal(err)
			}
			type answer struct {
				status int
				body   []byte
			}
			answers := make(chan answer, 2)
			go func() {
				status, body := getSession(t, ts.URL+"/sessions/key/held?wait=30s")
				answers <- answer{status, body}
			}()
			go func() {
				resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"tpch":1,"wait":true}`))
				if err != nil {
					t.Error(err)
					answers <- answer{}
					return
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				answers <- answer{resp.StatusCode, body}
			}()
			waitCond(t, 10*time.Second, "both reads to be held", func() bool {
				s.mu.Lock()
				defer s.mu.Unlock()
				n := 0
				for _, sess := range s.sessions {
					n += sess.waiters
				}
				return n == 2
			})
			stopped := time.Now()
			if err := stop.fn(s, ts.Config); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				a := <-answers
				var sr sessionResponse
				if err := json.Unmarshal(a.body, &sr); err != nil || a.status != http.StatusOK {
					t.Fatalf("released hold: status %d body %s", a.status, a.body)
				}
				if sr.State == StateDone || sr.State == StateFailed {
					t.Errorf("released hold on %s answered terminal state %s", sr.ID, sr.State)
				}
			}
			if time.Since(stopped) >= MaxHold {
				t.Error("the held GET ran out its hold instead of being released")
			}
			if n := waiters(s, held); n != 0 {
				t.Errorf("%d waiters left after release", n)
			}
		})
	}
}
