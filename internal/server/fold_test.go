package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/riveterdb/riveter"
)

// openFoldTPCH opens a fold-enabled database (shared scans + subplan cache
// underneath whole-plan folding).
func openFoldTPCH(t testing.TB, sf float64) *riveter.DB {
	t.Helper()
	db := riveter.Open(riveter.WithWorkers(2), riveter.WithCheckpointDir(t.TempDir()),
		riveter.WithTracing(), riveter.WithFold())
	if err := db.GenerateTPCH(sf); err != nil {
		t.Fatal(err)
	}
	return db
}

// holdSlots takes every free slot out of the scheduler's hands until the
// returned release is called, so what a test submits meanwhile stays queued
// for as long as the test says — not for as long as some other query happens
// to run.
func holdSlots(s *Server) (release func()) {
	s.mu.Lock()
	held := s.free
	s.free = 0
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.free += held
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// TestFoldDuplicateSubmissions: identical plans submitted while a leader is
// live attach as riders — no extra execution — and every rider receives the
// leader's result.
func TestFoldDuplicateSubmissions(t *testing.T) {
	db := openFoldTPCH(t, 0.005)
	s := newServer(t, db, Config{Slots: 1, Policy: FIFO{}, Fold: true})

	// Hold the only slot so the fold group forms while the leader is queued.
	release := holdSlots(s)
	lead, err := s.Submit(Request{TPCH: 6})
	if err != nil {
		t.Fatal(err)
	}
	var riders []*Session
	for i := 0; i < 3; i++ {
		r, err := s.Submit(Request{TPCH: 6})
		if err != nil {
			t.Fatal(err)
		}
		riders = append(riders, r)
	}

	in, ok := s.Info(lead.ID())
	if !ok || in.Riders != 3 {
		t.Fatalf("leader info = %+v, want 3 riders", in)
	}
	rin, _ := s.Info(riders[0].ID())
	if rin.FoldedInto != lead.ID() {
		t.Fatalf("rider folded_into = %q, want %q", rin.FoldedInto, lead.ID())
	}

	release()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	want, err := s.Wait(ctx, lead.ID())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range riders {
		got, err := s.Wait(ctx, r.ID())
		if err != nil {
			t.Fatal(err)
		}
		if got.SortedKey() != want.SortedKey() {
			t.Fatal("rider result differs from leader result")
		}
	}

	snap := db.Metrics().Snapshot()
	if got := snap.Counters["server.folded"]; got != 3 {
		t.Errorf("server.folded = %d, want 3", got)
	}
	if got := snap.Gauges["server.fold_riders"]; got != 0 {
		t.Errorf("server.fold_riders = %d after drain, want 0", got)
	}
	// A completed group is not a fold target: a late duplicate runs itself.
	late, err := s.Submit(Request{TPCH: 6})
	if err != nil {
		t.Fatal(err)
	}
	li, _ := s.Info(late.ID())
	if li.FoldedInto != "" {
		t.Error("late duplicate folded onto a finished session")
	}
	if _, err := s.Wait(ctx, late.ID()); err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheHitMiss: SQL submissions share one prepared plan through the
// normalized-text LRU, and trivial reformatting still hits.
func TestPlanCacheHitMiss(t *testing.T) {
	db := openTPCH(t, 0.005)
	s := newServer(t, db, Config{Slots: 2, Policy: FIFO{}})

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	submit := func(sql string) {
		t.Helper()
		sess, err := s.Submit(Request{SQL: sql})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(ctx, sess.ID()); err != nil {
			t.Fatal(err)
		}
	}
	submit("SELECT count(*) FROM region")
	submit("SELECT count(*) FROM region")
	submit("  SELECT   count(*)   FROM region ; ") // normalizes to the same key
	snap := db.Metrics().Snapshot()
	if got := snap.Counters["server.plancache.miss"]; got != 1 {
		t.Errorf("plancache.miss = %d, want 1", got)
	}
	if got := snap.Counters["server.plancache.hit"]; got != 2 {
		t.Errorf("plancache.hit = %d, want 2", got)
	}
}

// TestHTTPRawSQLBody: POST /query accepts a bare SQL statement as the
// request body, not just the JSON envelope.
func TestHTTPRawSQLBody(t *testing.T) {
	db := openTPCH(t, 0.005)
	s := newServer(t, db, Config{Slots: 1, Policy: FIFO{}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/query", "text/plain",
		strings.NewReader("SELECT count(*) AS n FROM region"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr sessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || sr.ID == "" {
		t.Fatalf("raw submit: status=%d session=%+v", resp.StatusCode, sr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := s.Wait(ctx, sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Fatalf("rows = %d", res.NumRows())
	}
}
