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

// TestPreemptionRetriesTransientFault: two transient write failures on the
// checkpoint a preempted victim is persisted to at shutdown are absorbed
// by the retry policy; the victim still resumes on restart to a
// byte-identical result.
func TestPreemptionRetriesTransientFault(t *testing.T) {
	stall := newStallFS(false)
	inj := faultfs.New(stall)
	db := openStallTPCH(t, inj)
	want := cleanRun(t, db)

	// Fail the first two state-payload writes of any session checkpoint.
	inj.AddFault(faultfs.Fault{Op: faultfs.OpWrite, PathSubstr: "session-", Nth: 1, Count: 2})
	s, err := New(Config{DB: db, Slots: 1, Policy: SuspensionAware{}, PreemptLevel: riveter.LineageLevel})
	if err != nil {
		t.Fatal(err)
	}
	long, _, _ := heldVictim(t, s, stall, riveter.PipelineLevel)
	if err := shutdownWhile(t, s, stall, false); err != nil {
		t.Fatal(err)
	}
	if in, _ := s.Info(long.ID()); in.Checkpoint == "" {
		t.Fatalf("held victim not checkpointed at shutdown: %+v", in)
	}
	if got := db.Metrics().Snapshot().Counters["checkpoint.retry"]; got < 1 {
		t.Errorf("checkpoint.retry = %d, want >= 1", got)
	}
	if res := restartAndWait(t, db, long.ID()); res.SortedKey() != want.SortedKey() {
		t.Error("retried-checkpoint result differs from clean run")
	}
}

// TestPreemptionFallsBackToPipeline: when every attempt at the process-
// level image of a preempted victim persisted at shutdown fails, the
// persist degrades to a pipeline-kind checkpoint (no padding) and the
// query still resumes on restart to an identical result.
func TestPreemptionFallsBackToPipeline(t *testing.T) {
	stall := newStallFS(false)
	inj := faultfs.New(stall)
	db := openStallTPCH(t, inj)
	want := cleanRun(t, db)

	retry := riveter.RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
	// Exactly as many transient sync failures as the first rung has
	// attempts: the process-level write exhausts its retries, the pipeline
	// fallback's first sync succeeds.
	inj.AddFault(faultfs.Fault{Op: faultfs.OpSync, PathSubstr: "session-", Count: retry.Attempts})
	s, err := New(Config{
		DB:              db,
		Slots:           1,
		Policy:          SuspensionAware{},
		PreemptLevel:    riveter.LineageLevel,
		CheckpointRetry: retry,
	})
	if err != nil {
		t.Fatal(err)
	}
	long, _, _ := heldVictim(t, s, stall, riveter.ProcessLevel)
	if err := shutdownWhile(t, s, stall, false); err != nil {
		t.Fatal(err)
	}
	in, _ := s.Info(long.ID())
	m, err := checkpoint.VerifyFS(db.FS(), in.Checkpoint)
	if err != nil {
		t.Fatalf("held victim's checkpoint %q: %v", in.Checkpoint, err)
	}
	if m.Kind != "pipeline" || m.PaddingBytes != 0 {
		t.Errorf("fallback checkpoint kind %q with %d padding bytes, want an unpadded pipeline image", m.Kind, m.PaddingBytes)
	}
	if got := db.Metrics().Snapshot().Counters["checkpoint.fallback"]; got < 1 {
		t.Errorf("checkpoint.fallback = %d, want >= 1", got)
	}
	if res := restartAndWait(t, db, long.ID()); res.SortedKey() != want.SortedKey() {
		t.Error("fallback-checkpoint result differs from clean run")
	}
}

// TestPreemptionAbandonedOnTotalFailure: with the checkpoint device fully
// broken, a suspension that has to be persisted — here an idle park — is
// held and re-queued instead, and the victim continues in place: its work
// is preserved and it completes correctly.
func TestPreemptionAbandonedOnTotalFailure(t *testing.T) {
	stall := newStallFS(false)
	inj := faultfs.New(stall)
	db := openStallTPCH(t, inj)
	want := cleanRun(t, db)

	// Every create of a session checkpoint fails, persistently.
	inj.AddFault(faultfs.Fault{Op: faultfs.OpCreate, PathSubstr: "session-"})
	s := newServer(t, db, Config{
		Slots:           1,
		Policy:          SuspensionAware{},
		PreemptLevel:    riveter.LineageLevel,
		IdleSuspend:     5 * time.Millisecond,
		CheckpointRetry: riveter.RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
	})
	long := stalledVictim(t, s, stall, riveter.ProcessLevel)
	waitCond(t, 30*time.Second, "the idle park", func() bool {
		return peek(s, func() bool { return long.idlePark && long.suspendIssued })
	})
	stall.release()
	waitCond(t, 30*time.Second, "the failed park", func() bool {
		return peek(s, func() bool { return long.abandoned > 0 })
	})

	res, err := s.Wait(context.Background(), long.ID())
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != want.SortedKey() {
		t.Error("failed-park result differs from clean run")
	}
	in, _ := s.Info(long.ID())
	if got := db.Metrics().Snapshot().Counters["server.preempt_abandoned"]; got < 1 {
		t.Errorf("server.preempt_abandoned = %d, want >= 1", got)
	}
	if in.State != StateDone {
		t.Errorf("long session state = %s, want done", in.State)
	}
}

// restartAndWait starts a fresh server over db — it restores what the last
// one's shutdown left in the state manifest — and waits for session id.
func restartAndWait(t *testing.T, db *riveter.DB, id string) *riveter.Result {
	t.Helper()
	s := newServer(t, db, Config{Slots: 1, Policy: SuspensionAware{}})
	res, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRestartQuarantinesTornCheckpoint: a checkpoint torn between shutdown
// and restart is quarantined (not fatal) and its session reruns from
// scratch to the correct result.
func TestRestartQuarantinesTornCheckpoint(t *testing.T) {
	stall := newStallFS(false)
	db := openStallTPCH(t, stall)
	want := cleanRun(t, db)

	s1, err := New(Config{DB: db, Slots: 1, Policy: SuspensionAware{}, PreemptLevel: riveter.LineageLevel})
	if err != nil {
		t.Fatal(err)
	}
	long := stalledVictim(t, s1, stall, riveter.PipelineLevel)
	if err := shutdownWhile(t, s1, stall, false); err != nil {
		t.Fatal(err)
	}
	in, _ := s1.Info(long.ID())
	if in.State != StateSuspended || in.Checkpoint == "" {
		t.Fatalf("after shutdown: state=%s checkpoint=%q", in.State, in.Checkpoint)
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
// write cannot hold Shutdown past its context deadline, whether the victim
// is running when Shutdown begins or already held by a preemption: the
// persist's retry backoff is bounded by the caller's ctx. The session is
// listed with no resume point, and a restart reruns it to the clean result.
func TestShutdownBoundedWithFailingDisk(t *testing.T) {
	for _, tc := range []struct {
		name string
		hold bool
	}{
		{"running", false},
		{"held", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stall := newStallFS(false)
			inj := faultfs.New(stall)
			db := openStallTPCH(t, inj)
			want := cleanRun(t, db)
			inj.AddFault(faultfs.Fault{Op: faultfs.OpCreate, PathSubstr: "session-"})
			s, err := New(Config{
				DB:           db,
				Slots:        1,
				PreemptLevel: riveter.LineageLevel,
				CheckpointRetry: riveter.RetryPolicy{
					Attempts:  1000,
					BaseDelay: time.Second,
					MaxDelay:  time.Second,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			var victim *Session
			if tc.hold {
				victim, _, _ = heldVictim(t, s, stall, riveter.ProcessLevel)
			} else {
				victim = stalledVictim(t, s, stall, riveter.ProcessLevel)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- s.Shutdown(ctx) }()
			waitCond(t, 30*time.Second, "shutdown to begin", func() bool {
				return peek(s, func() bool { return s.stopping })
			})
			stall.release()
			select {
			case err := <-done:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("shutdown error = %v, want the deadline", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("shutdown still persisting 5s into its 200ms budget: retry backoff not bounded by its ctx")
			}
			if in, _ := s.Info(victim.ID()); in.State != StateSuspended || in.resumeWire != (resumeWire{}) {
				t.Errorf("after shutdown: state %s, resume point %+v; want suspended with none", in.State, in.resumeWire)
			}
			if res := restartAndWait(t, db, victim.ID()); res.SortedKey() != want.SortedKey() {
				t.Error("rerun after a failed persist differs from a clean run")
			}
		})
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
