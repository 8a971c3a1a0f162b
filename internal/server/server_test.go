package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/riveterdb/riveter"
)

func openTPCH(t testing.TB, sf float64) *riveter.DB {
	t.Helper()
	db := riveter.Open(riveter.WithWorkers(2), riveter.WithCheckpointDir(t.TempDir()), riveter.WithTracing())
	if err := db.GenerateTPCH(sf); err != nil {
		t.Fatal(err)
	}
	return db
}

// holdsExecution reports whether the session still references an execution:
// only a running session may, or every finished or suspended one pins its
// executor, hash tables and all.
func holdsExecution(s *Server, sess *Session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sess.exec != nil
}

func newServer(t testing.TB, db *riveter.DB, cfg Config) *Server {
	t.Helper()
	cfg.DB = db
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func TestAdmissionMemoryBudget(t *testing.T) {
	db := openTPCH(t, 0.005)
	s := newServer(t, db, Config{MemoryBudget: 1})
	_, err := s.Submit(Request{TPCH: 21})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("want ErrRejected, got %v", err)
	}
	if got := db.Metrics().Snapshot().Counters["server.admit.reject"]; got != 1 {
		t.Errorf("reject counter = %d", got)
	}
}

func TestAdmissionQueueLimit(t *testing.T) {
	db := openTPCH(t, 0.02)
	s := newServer(t, db, Config{Slots: 1, QueueLimit: 1, Policy: FIFO{}})
	long, err := s.Submit(Request{TPCH: 21})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the long query occupies the slot so the next two
	// submissions exercise queue accounting deterministically.
	deadline := time.Now().Add(5 * time.Second)
	for {
		in, _ := s.Info(long.ID())
		if in.State == StateRunning {
			break
		}
		if in.State == StateDone || time.Now().After(deadline) {
			t.Skipf("long query did not hold the slot (state=%s)", in.State)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(Request{SQL: "SELECT count(*) FROM orders"}); err != nil {
		t.Fatalf("first queued submission: %v", err)
	}
	if _, err := s.Submit(Request{SQL: "SELECT count(*) FROM region"}); !errors.Is(err, ErrRejected) {
		t.Fatalf("want queue-full rejection, got %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	db := openTPCH(t, 0.005)
	s := newServer(t, db, Config{})
	if _, err := s.Submit(Request{}); err == nil {
		t.Error("empty request must error")
	}
	if _, err := s.Submit(Request{SQL: "SELECT 1", TPCH: 3}); err == nil {
		t.Error("both SQL and TPCH must error")
	}
	if _, err := s.Submit(Request{SQL: "SELECT bogus FROM lineitem"}); err == nil {
		t.Error("compile error must surface")
	}
	if _, err := s.Submit(Request{TPCH: 99}); err == nil {
		t.Error("bad TPCH id must surface")
	}
}

// TestPriorityOrdering checks the suspension-aware dispatch order: with one
// slot held by a long batch query, queued sessions complete in priority
// order regardless of submission order.
func TestPriorityOrdering(t *testing.T) {
	db := openTPCH(t, 0.02)
	s := newServer(t, db, Config{Slots: 1, Policy: SuspensionAware{}})
	long, err := s.Submit(Request{TPCH: 21, Priority: Batch})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	// Submission order deliberately inverts priority order.
	batch, err := s.Submit(Request{SQL: "SELECT count(*) FROM orders", Priority: Batch})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := s.Submit(Request{SQL: "SELECT count(*) FROM customer", Priority: Interactive})
	if err != nil {
		t.Fatal(err)
	}
	normal, err := s.Submit(Request{SQL: "SELECT count(*) FROM part", Priority: Normal})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	times := map[string]time.Time{}
	for _, sess := range []*Session{inter, normal, batch} {
		if _, err := s.Wait(ctx, sess.ID()); err != nil {
			t.Fatal(err)
		}
		times[sess.ID()] = time.Now()
	}
	if _, err := s.Wait(ctx, long.ID()); err != nil {
		t.Fatal(err)
	}
	// One slot dispatches serially, so completion order equals dispatch
	// order equals priority order.
	if !times[inter.ID()].Before(times[normal.ID()]) || !times[normal.ID()].Before(times[batch.ID()]) {
		t.Errorf("completion order violates priority: interactive=%v normal=%v batch=%v",
			times[inter.ID()], times[normal.ID()], times[batch.ID()])
	}
}

// TestPreemption checks the tentpole behaviour: an interactive arrival
// suspends a running batch query at a pipeline breaker, runs, and the
// batch query resumes from its checkpoint to the correct result.
func TestPreemption(t *testing.T) {
	db := openTPCH(t, 0.02)
	q21, err := db.PrepareTPCH(21)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q21.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	s := newServer(t, db, Config{Slots: 1, Policy: SuspensionAware{}})
	long, err := s.Submit(Request{TPCH: 21, Priority: Batch})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	short, err := s.Submit(Request{SQL: "SELECT count(*) AS n FROM orders", Priority: Interactive})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Wait(ctx, short.ID()); err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(ctx, long.ID())
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != want.SortedKey() {
		t.Error("preempted+resumed result differs from clean run")
	}
	if holdsExecution(s, short) || holdsExecution(s, long) {
		t.Error("a finished session still holds its execution")
	}
	in, _ := s.Info(long.ID())
	if in.Preemptions == 0 {
		t.Skip("timing: long query finished before the preemption landed")
	}
	if got := db.Metrics().Snapshot().Counters["server.preemptions"]; got < 1 {
		t.Errorf("preemption counter = %d", got)
	}
	if len(s.Traces()) == 0 {
		t.Error("finished sessions must leave traces (DB opened WithTracing)")
	}
}

// TestShutdownResume checks the shutdown/restore protocol: graceful
// shutdown suspends the in-flight query to a checkpoint and a fresh server
// resumes it to a result identical to an uninterrupted run.
func TestShutdownResume(t *testing.T) {
	db := openTPCH(t, 0.02)
	q21, err := db.PrepareTPCH(21)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q21.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	s1, err := New(Config{DB: db, Slots: 1, Policy: SuspensionAware{}})
	if err != nil {
		t.Fatal(err)
	}
	long, err := s1.Submit(Request{TPCH: 21, Priority: Batch})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	in, ok := s1.Info(long.ID())
	if !ok {
		t.Fatal("session vanished")
	}
	if in.State == StateDone {
		t.Skip("timing: long query completed before shutdown suspended it")
	}
	if in.State != StateSuspended || in.Checkpoint == "" {
		t.Fatalf("after shutdown: state=%s checkpoint=%q", in.State, in.Checkpoint)
	}
	if holdsExecution(s1, long) {
		t.Error("a suspended session still holds the execution its checkpoint replaced")
	}
	if _, err := s1.Submit(Request{TPCH: 6}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after shutdown = %v", err)
	}

	// "Restart": a fresh server over the same DB and state path resumes the
	// suspended session.
	s2 := newServer(t, db, Config{Slots: 1, Policy: SuspensionAware{}})
	res, err := s2.Wait(context.Background(), long.ID())
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != want.SortedKey() {
		t.Error("resumed-after-restart result differs from uninterrupted run")
	}
	in2, _ := s2.Info(long.ID())
	if in2.State != StateDone {
		t.Errorf("restored session state = %s", in2.State)
	}
}
