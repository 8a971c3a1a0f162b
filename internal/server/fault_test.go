package server

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/checkpoint"
	"github.com/riveterdb/riveter/internal/faultfs"
)

// openTPCHFS is openTPCH with an injector wrapped around all checkpoint I/O.
func openTPCHFS(t testing.TB, sf float64) (*riveter.DB, *faultfs.Injector) {
	t.Helper()
	inj := faultfs.New(nil)
	db := riveter.Open(
		riveter.WithWorkers(2),
		riveter.WithCheckpointDir(t.TempDir()),
		riveter.WithTracing(),
		riveter.WithFS(inj),
	)
	if err := db.GenerateTPCH(sf); err != nil {
		t.Fatal(err)
	}
	return db, inj
}

// submitLongThenShort arms the classic preemption workload: a long batch
// query holding the slot, then an interactive arrival that forces the
// scheduler to preempt. Skips if the long query finished before holding
// the slot.
func submitLongThenShort(t *testing.T, s *Server) (long, short *Session) {
	t.Helper()
	long, err := s.Submit(Request{TPCH: 21, Priority: Batch})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		in, _ := s.Info(long.ID())
		if in.State == StateRunning {
			break
		}
		if in.State == StateDone || time.Now().After(deadline) {
			t.Skipf("timing: long query did not hold the slot (state=%s)", in.State)
		}
		time.Sleep(time.Millisecond)
	}
	short, err = s.Submit(Request{SQL: "SELECT count(*) AS n FROM orders", Priority: Interactive})
	if err != nil {
		t.Fatal(err)
	}
	return long, short
}

// TestPreemptionRetriesTransientFault: two transient write failures on the
// preemption checkpoint are absorbed by the retry policy; the preempted
// query still resumes to a byte-identical result.
func TestPreemptionRetriesTransientFault(t *testing.T) {
	db, inj := openTPCHFS(t, 0.02)
	want := cleanRun(t, db)

	// Fail the first two state-payload writes of any session checkpoint.
	inj.AddFault(faultfs.Fault{Op: faultfs.OpWrite, PathSubstr: "session-", Nth: 1, Count: 2})
	s := newServer(t, db, Config{Slots: 1, Policy: SuspensionAware{}})
	long, short := submitLongThenShort(t, s)

	ctx := context.Background()
	if _, err := s.Wait(ctx, short.ID()); err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(ctx, long.ID())
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != want.SortedKey() {
		t.Error("retried-checkpoint result differs from clean run")
	}
	in, _ := s.Info(long.ID())
	if in.Preemptions == 0 {
		t.Skip("timing: long query finished before the preemption landed")
	}
	if got := db.Metrics().Snapshot().Counters["checkpoint.retry"]; got < 1 {
		t.Errorf("checkpoint.retry = %d, want >= 1", got)
	}
}

// TestPreemptionFallsBackToPipeline: when every attempt at the process-
// level image fails, the persist degrades to a pipeline-kind checkpoint
// (no padding) and the query still resumes to an identical result.
func TestPreemptionFallsBackToPipeline(t *testing.T) {
	db, inj := openTPCHFS(t, 0.02)
	want := cleanRun(t, db)

	retry := riveter.RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
	// Exactly as many transient sync failures as the first rung has
	// attempts: the process-level write exhausts its retries, the pipeline
	// fallback's first sync succeeds.
	inj.AddFault(faultfs.Fault{Op: faultfs.OpSync, PathSubstr: "session-", Count: retry.Attempts})
	s := newServer(t, db, Config{
		Slots:           1,
		Policy:          SuspensionAware{},
		PreemptLevel:    riveter.ProcessLevel,
		CheckpointRetry: retry,
	})
	long, short := submitLongThenShort(t, s)

	ctx := context.Background()
	if _, err := s.Wait(ctx, short.ID()); err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(ctx, long.ID())
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != want.SortedKey() {
		t.Error("fallback-checkpoint result differs from clean run")
	}
	in, _ := s.Info(long.ID())
	if in.Preemptions == 0 {
		t.Skip("timing: long query finished before the preemption landed")
	}
	if got := db.Metrics().Snapshot().Counters["checkpoint.fallback"]; got < 1 {
		t.Errorf("checkpoint.fallback = %d, want >= 1", got)
	}
}

// TestPreemptionAbandonedOnTotalFailure: with the checkpoint device fully
// broken, the preemption is abandoned and the victim resumes in place —
// its work is preserved and both queries complete correctly.
func TestPreemptionAbandonedOnTotalFailure(t *testing.T) {
	db, inj := openTPCHFS(t, 0.02)
	want := cleanRun(t, db)

	// Every create of a session checkpoint fails, persistently.
	inj.AddFault(faultfs.Fault{Op: faultfs.OpCreate, PathSubstr: "session-"})
	s := newServer(t, db, Config{
		Slots:           1,
		Policy:          SuspensionAware{},
		CheckpointRetry: riveter.RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		AbandonCooldown: 50 * time.Millisecond,
	})
	long, short := submitLongThenShort(t, s)

	ctx := context.Background()
	res, err := s.Wait(ctx, long.ID())
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != want.SortedKey() {
		t.Error("abandoned-preemption result differs from clean run")
	}
	if _, err := s.Wait(ctx, short.ID()); err != nil {
		t.Fatal(err)
	}
	in, _ := s.Info(long.ID())
	if in.Abandoned == 0 {
		t.Skip("timing: long query finished before any preemption was attempted")
	}
	if got := db.Metrics().Snapshot().Counters["server.preempt_abandoned"]; got < 1 {
		t.Errorf("server.preempt_abandoned = %d, want >= 1", got)
	}
	if in.State != StateDone {
		t.Errorf("long session state = %s, want done", in.State)
	}
}

// TestRestartQuarantinesTornCheckpoint: a checkpoint torn between shutdown
// and restart is quarantined (not fatal) and its session reruns from
// scratch to the correct result.
func TestRestartQuarantinesTornCheckpoint(t *testing.T) {
	db := openTPCH(t, 0.02)
	want := cleanRun(t, db)

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
	in, _ := s1.Info(long.ID())
	if in.State != StateSuspended || in.Checkpoint == "" {
		t.Skipf("timing: no suspended checkpoint to tear (state=%s)", in.State)
	}

	// Tear the checkpoint: keep the header, drop the tail.
	data, err := os.ReadFile(in.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in.Checkpoint, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newServer(t, db, Config{Slots: 1, Policy: SuspensionAware{}})
	res, err := s2.Wait(context.Background(), long.ID())
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != want.SortedKey() {
		t.Error("rerun-after-quarantine result differs from clean run")
	}
	if got := db.Metrics().Snapshot().Counters["checkpoint.quarantined"]; got < 1 {
		t.Errorf("checkpoint.quarantined = %d, want >= 1", got)
	}
	if _, err := os.Stat(in.Checkpoint + checkpoint.CorruptSuffix); err != nil {
		t.Errorf("quarantined evidence missing: %v", err)
	}
	in2, _ := s2.Info(long.ID())
	if in2.Preemptions != 0 && in2.State != StateDone {
		t.Errorf("session after quarantine: %+v", in2)
	}
}

// TestStartupSweepsAndQuarantines: a fresh server sweeps a crashed
// predecessor's .tmp orphans and quarantines a torn state manifest rather
// than refusing to start.
func TestStartupSweepsAndQuarantines(t *testing.T) {
	db := openTPCH(t, 0.005)
	dir := db.CheckpointDir()
	orphan := filepath.Join(dir, "session-s-9-crashed.rvck"+checkpoint.TempSuffix)
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	statePath := filepath.Join(dir, "riveter-serve.state.json")
	if err := os.WriteFile(statePath, []byte(`{"sessions": [tor`), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newServer(t, db, Config{})
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("orphaned .tmp survived startup")
	}
	if _, err := os.Stat(statePath + checkpoint.CorruptSuffix); err != nil {
		t.Errorf("torn manifest not quarantined: %v", err)
	}
	if got := db.Metrics().Snapshot().Counters["checkpoint.quarantined"]; got < 1 {
		t.Errorf("checkpoint.quarantined = %d, want >= 1", got)
	}
	// The server is healthy: a query runs normally.
	sess, err := s.Submit(Request{SQL: "SELECT count(*) FROM region"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), sess.ID()); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownBoundedWithFailingDisk: a disk that fails every checkpoint
// write cannot hold Shutdown past its context deadline — the server
// context aborts the retry backoffs.
func TestShutdownBoundedWithFailingDisk(t *testing.T) {
	db, inj := openTPCHFS(t, 0.02)
	inj.AddFault(faultfs.Fault{Op: faultfs.OpCreate, PathSubstr: "session-"})
	s, err := New(Config{
		DB:    db,
		Slots: 1,
		CheckpointRetry: riveter.RetryPolicy{
			Attempts:  1000,
			BaseDelay: time.Second,
			MaxDelay:  time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	long, err := s.Submit(Request{TPCH: 21, Priority: Batch})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		in, _ := s.Info(long.ID())
		if in.State == StateRunning {
			break
		}
		if in.State == StateDone || time.Now().After(deadline) {
			t.Skipf("timing: long query did not hold the slot (state=%s)", in.State)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	serr := s.Shutdown(ctx)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("shutdown took %v with a failing disk; retry backoff not cancelled", elapsed)
	}
	// Either the query completed inside the budget (nil) or the deadline
	// fired (DeadlineExceeded); both are bounded outcomes.
	if serr != nil && !errors.Is(serr, context.DeadlineExceeded) {
		t.Errorf("shutdown error = %v", serr)
	}
}

// cleanRun executes TPC-H 21 uninterrupted for a reference result.
func cleanRun(t *testing.T, db *riveter.DB) *riveter.Result {
	t.Helper()
	q, err := db.PrepareTPCH(21)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRestoreManifestReadFault: the state manifest is read
// through the DB's filesystem, like it is written — a fault plan on the
// read is observed by startup instead of being bypassed on the OS, and
// with the fault gone the same manifest restores its session.
func TestRestoreManifestReadFault(t *testing.T) {
	db, inj := openTPCHFS(t, 0.005)
	statePath := filepath.Join(db.CheckpointDir(), "riveter-serve.state.json")
	manifest := `{"sessions": [{"id": "s-7", "sql": "SELECT count(*) AS n FROM region", "priority": 10}]}`
	if err := os.WriteFile(statePath, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}

	inj.AddFault(faultfs.Fault{Op: faultfs.OpOpen, PathSubstr: "state.json"})
	if _, err := New(Config{DB: db}); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("New with a failing manifest read = %v, want the injected fault", err)
	}
	inj.Reset()

	s := newServer(t, db, Config{})
	res, err := s.Wait(context.Background(), "s-7")
	if err != nil {
		t.Fatalf("restored session: %v", err)
	}
	if res.NumRows() != 1 {
		t.Errorf("restored session rows = %d", res.NumRows())
	}
	if _, err := os.Stat(statePath); !os.IsNotExist(err) {
		t.Error("consumed manifest still on disk")
	}
}
