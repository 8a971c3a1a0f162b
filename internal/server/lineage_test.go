package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/checkpoint"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/vector"
)

// The serving layer under lineage-level preemption: a preempted victim is
// held in memory with its write-ahead lineage log still attached; a
// suspension that must be persisted seals the log instead of writing a
// checkpoint, the resume replays it, a failing log degrades to the
// checkpoint ladder, and restart/restore treats a sealed log like any
// other resume point — verified before dispatch, quarantined when
// unusable.

// TestLineagePreemption is the lineage counterpart of TestPreemption: an
// interactive arrival preempts a running lineage-logged batch query, which
// is held with its log attached and continues in place to the correct
// result, leaving no log behind once it is done.
func TestLineagePreemption(t *testing.T) {
	stall := newStallFS(false)
	db := openStallTPCH(t, stall)
	want := runTPCH(t, db, 21)

	s := newServer(t, db, Config{Slots: 1, Policy: SuspensionAware{}, PreemptLevel: riveter.LineageLevel})
	long := stalledVictim(t, s, stall, riveter.LineageLevel)
	short := preemptVictim(t, s, long)
	stall.release()
	ctx := context.Background()
	if _, err := s.Wait(ctx, short.ID()); err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(ctx, long.ID())
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != want.SortedKey() {
		t.Error("lineage-preempted result differs from clean run")
	}
	if in, _ := s.Info(long.ID()); in.Preemptions == 0 {
		t.Error("the long query was never preempted")
	}
	snap := db.Metrics().Snapshot()
	// The log kept logging through the hold: its breaker seals count.
	if got := snap.Counters["lineage.seals"]; got < 1 {
		t.Errorf("lineage.seals = %d, want >= 1", got)
	}
	if got := snap.Counters["checkpoint.fallback"]; got != 0 {
		t.Errorf("checkpoint.fallback = %d on a healthy log", got)
	}
	// Completed sessions leave no recovery state behind.
	logs, _ := filepath.Glob(filepath.Join(db.CheckpointDir(), "*.rvlg"))
	if len(logs) != 0 {
		t.Errorf("leftover lineage logs after completion: %v", logs)
	}
}

// TestLineagePreemptionFallback breaks the lineage log's device mid-run:
// the log's seal fails (never the query), so when shutdown has to persist
// the query the server degrades to the checkpoint ladder — and the session
// still finishes on restart with the correct result.
func TestLineagePreemptionFallback(t *testing.T) {
	stall := newStallFS(true)
	db := openStallTPCH(t, stall)
	want := runTPCH(t, db, 21)

	s, err := New(Config{DB: db, Slots: 1, Policy: SuspensionAware{}, PreemptLevel: riveter.LineageLevel})
	if err != nil {
		t.Fatal(err)
	}
	long := stalledVictim(t, s, stall, riveter.LineageLevel)
	if err := shutdownWhile(t, s, stall, false); err != nil {
		t.Fatal(err)
	}
	in, _ := s.Info(long.ID())
	if in.State != StateSuspended || in.Checkpoint == "" || in.Lineage != "" {
		t.Fatalf("after shutdown: state=%s resume point=%+v, want a checkpoint", in.State, in.resumeWire)
	}
	if got := db.Metrics().Snapshot().Counters["checkpoint.fallback"]; got < 1 {
		t.Errorf("checkpoint.fallback = %d, want >= 1 (seal failure must degrade)", got)
	}
	s2 := newServer(t, db, Config{Slots: 1, Policy: SuspensionAware{}, PreemptLevel: riveter.LineageLevel})
	res, err := s2.Wait(context.Background(), long.ID())
	if err != nil {
		t.Fatalf("log faults must not fail the session: %v", err)
	}
	if res.SortedKey() != want.SortedKey() {
		t.Error("degraded-suspension result differs from clean run")
	}
}

// lineageShutdown runs TPC-H 21 on a lineage-level server over db and shuts
// the server down while the query is mid-run, returning the session's
// snapshot: suspended, its resume point the sealed log.
func lineageShutdown(t *testing.T, db *riveter.DB, stall *stallFS) Info {
	t.Helper()
	s1, err := New(Config{DB: db, Slots: 1, Policy: SuspensionAware{}, PreemptLevel: riveter.LineageLevel})
	if err != nil {
		t.Fatal(err)
	}
	long := stalledVictim(t, s1, stall, riveter.LineageLevel)
	if err := shutdownWhile(t, s1, stall, false); err != nil {
		t.Fatal(err)
	}
	in, ok := s1.Info(long.ID())
	if !ok {
		t.Fatal("session vanished")
	}
	if in.State != StateSuspended || in.Lineage == "" {
		t.Fatalf("after shutdown: state=%s lineage=%q checkpoint=%q", in.State, in.Lineage, in.Checkpoint)
	}
	return in
}

// TestLineageShutdownResume checks the restart protocol in lineage mode:
// graceful shutdown seals the in-flight query's log, the state manifest
// records it, and a fresh server replays it to an identical result.
func TestLineageShutdownResume(t *testing.T) {
	stall := newStallFS(false)
	db := openStallTPCH(t, stall)
	want := runTPCH(t, db, 21)

	in := lineageShutdown(t, db, stall)
	if in.Checkpoint != "" || in.StoreKey != "" {
		t.Errorf("lineage suspension must not also checkpoint: ckpt=%q store=%q", in.Checkpoint, in.StoreKey)
	}
	if _, err := db.Verify(riveter.ResumePoint{Target: "lineage", Ref: in.Lineage}); err != nil {
		t.Fatalf("sealed log does not verify: %v", err)
	}

	// "Restart": a fresh server over the same DB and state path replays the
	// sealed log.
	s2 := newServer(t, db, Config{Slots: 1, Policy: SuspensionAware{}, PreemptLevel: riveter.LineageLevel})
	res, err := s2.Wait(context.Background(), in.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != want.SortedKey() {
		t.Error("replayed-after-restart result differs from uninterrupted run")
	}
	in2, _ := s2.Info(in.ID)
	if in2.State != StateDone {
		t.Errorf("restored session state = %s", in2.State)
	}
}

// TestLineageQuarantineOnRestore corrupts a sealed lineage log between
// shutdown and restart: the fresh server quarantines it before dispatching
// into it, and the session reruns from scratch to the correct result.
func TestLineageQuarantineOnRestore(t *testing.T) {
	stall := newStallFS(false)
	db := openStallTPCH(t, stall)
	want := runTPCH(t, db, 21)

	in := lineageShutdown(t, db, stall)
	// Destroy the log below its header+meta: the scan must reject it
	// outright, which is a quarantine, not a replay of garbage.
	if err := os.Truncate(in.Lineage, 3); err != nil {
		t.Fatal(err)
	}

	s2 := newServer(t, db, Config{Slots: 1, Policy: SuspensionAware{}, PreemptLevel: riveter.LineageLevel})
	res, err := s2.Wait(context.Background(), in.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != want.SortedKey() {
		t.Error("rerun-from-scratch result differs from clean run")
	}
	if got := db.Metrics().Snapshot().Counters["checkpoint.quarantined"]; got < 1 {
		t.Errorf("checkpoint.quarantined = %d, want >= 1", got)
	}
	if _, err := os.Stat(in.Lineage); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("corrupt log must be renamed aside, still at %s", in.Lineage)
	}
}

// TestLineageRerunAfterQuarantineKeepsLog: a resume point that passes the
// restore-time verify but cannot be started from (here a structurally
// sound file checkpoint whose state payload no executor accepts) is
// quarantined at dispatch, and the rerun from scratch goes through the
// same start as any fresh session — so under lineage-level preemption it
// carries a lineage log, whatever target the bad point had.
func TestLineageRerunAfterQuarantineKeepsLog(t *testing.T) {
	db := openTPCH(t, 0.005)
	bad := db.NewCheckpointPath("session-s-3")
	img, err := checkpoint.Encode(checkpoint.Manifest{Kind: "pipeline", Query: "sql"},
		func(enc *vector.Encoder) error { enc.String("not executor state"); return enc.Err() }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.Write(context.Background(), db.FS(), bad, checkpoint.RetryPolicy{}, nil); err != nil {
		t.Fatal(err)
	}
	img.Release()
	statePath := filepath.Join(db.CheckpointDir(), "riveter-serve.state.json")
	manifest := fmt.Sprintf(`{"sessions": [{"id": "s-3", "sql": "SELECT count(*) AS n FROM lineitem", "priority": 10, "checkpoint": %q}]}`, bad)
	if err := os.WriteFile(statePath, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newServer(t, db, Config{PreemptLevel: riveter.LineageLevel})
	if _, err := s.Wait(context.Background(), "s-3"); err != nil {
		t.Fatalf("session after quarantine: %v", err)
	}
	snap := db.Metrics().Snapshot()
	if got := snap.Counters["checkpoint.quarantined"]; got != 1 {
		t.Errorf("checkpoint.quarantined = %d, want 1", got)
	}
	if _, err := os.Stat(bad + checkpoint.CorruptSuffix); err != nil {
		t.Errorf("quarantined evidence missing: %v", err)
	}
	if got := snap.Counters[obs.MetricLineageAppends]; got == 0 {
		t.Error("rerun after quarantine ran without a lineage log")
	}
}

// TestLineageFailedRunRemovesItsLog: a lineage-logged session whose run
// fails — here aborted mid-run by Kill — leaves no log behind in the
// checkpoint directory.
func TestLineageFailedRunRemovesItsLog(t *testing.T) {
	stall := newStallFS(false)
	db := openStallTPCH(t, stall)
	s := newServer(t, db, Config{Slots: 1, Policy: SuspensionAware{}, PreemptLevel: riveter.LineageLevel})
	victim := stalledVictim(t, s, stall, riveter.LineageLevel)
	killed := make(chan struct{})
	go func() {
		s.Kill()
		close(killed)
	}()
	waitCond(t, 30*time.Second, "the kill to cancel the run", func() bool { return s.ctx.Err() != nil })
	stall.release()
	select {
	case <-killed:
	case <-time.After(30 * time.Second):
		t.Fatal("Kill did not return")
	}
	if in, _ := s.Info(victim.ID()); in.State != StateFailed {
		t.Errorf("killed session is %s, want failed", in.State)
	}
	logs, _ := filepath.Glob(filepath.Join(db.CheckpointDir(), "*.rvlg"))
	if len(logs) != 0 {
		t.Errorf("a failed run left its lineage log behind: %v", logs)
	}
}
