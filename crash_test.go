package riveter

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/riveterdb/riveter/internal/checkpoint"
	"github.com/riveterdb/riveter/internal/faultfs"
)

// openTPCHFS is openTPCH with an injector wrapped around checkpoint I/O.
func openTPCHFS(t testing.TB, sf float64) (*DB, *faultfs.Injector) {
	t.Helper()
	inj := faultfs.New(nil)
	db := Open(WithWorkers(2), WithCheckpointDir(t.TempDir()), WithFS(inj))
	if err := db.GenerateTPCH(sf); err != nil {
		t.Fatal(err)
	}
	return db, inj
}

// suspendArmed starts q with a level suspension armed at half the bytes a
// clean run processes, so the suspension lands whatever the timing, and
// waits for it. A lineage suspension gets a log attached.
func suspendArmed(t *testing.T, q *Query, level Strategy) *Execution {
	t.Helper()
	ctx := context.Background()
	clean, err := q.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.Wait(); err != nil {
		t.Fatal(err)
	}
	var lineage *LineageConfig
	if level == LineageLevel {
		lineage = &LineageConfig{}
	}
	exec, err := q.start(lineage)
	if err != nil {
		t.Fatal(err)
	}
	at := clean.ProcessedBytes() / 2
	if err := exec.SuspendWhen(level, at); err != nil {
		t.Fatal(err)
	}
	if err := exec.launch(ctx).Wait(); !errors.Is(err, ErrSuspended) {
		t.Fatalf("%v suspension armed at %d bytes: Wait = %v", level, at, err)
	}
	return exec
}

// TestCrashMatrixEndToEnd is the crash matrix over a real engine state: a
// suspended TPC-H query is checkpointed under crash points spread across
// the image. After each simulated crash, the final path either holds a
// complete image — which verifies and resumes to a byte-identical result —
// or holds nothing and the failure is reported cleanly. Orphaned .tmp
// files are swept like a restarting server would.
func TestCrashMatrixEndToEnd(t *testing.T) {
	db, inj := openTPCHFS(t, 0.02)
	q, err := db.PrepareTPCH(3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	exec := suspendArmed(t, q, PipelineLevel)

	// One clean checkpoint to learn the image size (and prove the state is
	// re-serializable: every crash round below checkpoints the same
	// suspended executor again).
	cleanPath := db.NewCheckpointPath("clean")
	if _, err := exec.Checkpoint(cleanPath); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(cleanPath)
	if err != nil {
		t.Fatal(err)
	}
	size := st.Size()

	dir := db.CheckpointDir()
	for _, frac := range []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999} {
		crashAt := int64(frac * float64(size))
		inj.Reset()
		inj.CrashAfterBytes(crashAt)
		path := db.NewCheckpointPath("crash")
		_, cerr := exec.Checkpoint(path)
		inj.Reset() // the "restarted process" sees a healthy disk again

		if _, statErr := os.Stat(path); statErr == nil {
			if _, verr := db.Verify(filePoint(path)); verr != nil {
				t.Fatalf("crash@%d: published checkpoint fails verify: %v", crashAt, verr)
			}
			if res := finishFrom(t, q, filePoint(path)); res.SortedKey() != want.SortedKey() {
				t.Fatalf("crash@%d: resumed result differs from clean run", crashAt)
			}
		} else {
			if cerr == nil {
				t.Fatalf("crash@%d: Checkpoint claimed success but published nothing", crashAt)
			}
			if _, verr := db.Verify(filePoint(path)); verr == nil {
				t.Fatalf("crash@%d: verify passed on a missing checkpoint", crashAt)
			}
		}
		// The fresh process sweeps whatever the crash left in flight.
		removed, failed, serr := checkpoint.SweepTemp(faultfs.OS, dir)
		if serr != nil {
			t.Fatalf("crash@%d: sweep: %v", crashAt, serr)
		}
		if len(failed) != 0 {
			t.Fatalf("crash@%d: sweep failures: %v", crashAt, failed)
		}
		for _, p := range removed {
			if !strings.HasSuffix(p, checkpoint.TempSuffix) {
				t.Fatalf("crash@%d: sweep removed non-temp %s", crashAt, p)
			}
		}
	}

	// The clean checkpoint still resumes byte-identically after all rounds.
	if res := finishFrom(t, q, filePoint(cleanPath)); res.SortedKey() != want.SortedKey() {
		t.Error("clean-checkpoint resume differs from uninterrupted run")
	}
}

// TestPersistRetryPolicy: Persist's retry policy absorbs transient faults and
// the checkpoint resumes correctly.
func TestPersistRetryPolicy(t *testing.T) {
	db, inj := openTPCHFS(t, 0.02)
	q, err := db.PrepareTPCH(3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	exec := suspendArmed(t, q, PipelineLevel)

	inj.AddFault(faultfs.Fault{Op: faultfs.OpWrite, PathSubstr: ".rvck", Nth: 1, Count: 2})
	at := filePoint(db.NewCheckpointPath("retry"))
	info, err := exec.Persist(context.Background(), at, PersistOptions{
		Retry: RetryPolicy{Attempts: 5, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != "pipeline" {
		t.Errorf("kind = %s", info.Kind)
	}
	if got := db.Metrics().Snapshot().Counters["checkpoint.retry"]; got != 2 {
		t.Errorf("checkpoint.retry = %d, want 2", got)
	}
	if res := finishFrom(t, q, at); res.SortedKey() != want.SortedKey() {
		t.Error("retried checkpoint resumed to a different result")
	}
}

// TestPersistDegradedUnpadded: a process-level image that will not write
// fails Persist unless the caller allows the unpadded rung; allowed, the
// same Persist lands a pipeline-kind image without padding (counted as a
// fallback) that still resumes to an identical result.
func TestPersistDegradedUnpadded(t *testing.T) {
	db, inj := openTPCHFS(t, 0.02)
	q, err := db.PrepareTPCH(1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	exec := suspendArmed(t, q, ProcessLevel)
	ctx := context.Background()

	fullInfo, err := exec.Persist(ctx, filePoint(db.NewCheckpointPath("full")), PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fullInfo.Kind != "process" || fullInfo.TotalBytes <= fullInfo.StateBytes {
		t.Fatalf("full checkpoint: %+v", fullInfo)
	}

	// Each image's first sync fails once: without the rung that is fatal.
	inj.AddFault(faultfs.Fault{Op: faultfs.OpSync, PathSubstr: "strict", Count: 1})
	if _, err := exec.Persist(ctx, filePoint(db.NewCheckpointPath("strict")), PersistOptions{}); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("persist without the rung: %v, want the injected fault", err)
	}
	inj.AddFault(faultfs.Fault{Op: faultfs.OpSync, PathSubstr: "degraded", Count: 1})
	degraded := filePoint(db.NewCheckpointPath("degraded"))
	degInfo, err := exec.Persist(ctx, degraded, PersistOptions{AllowUnpadded: true})
	if err != nil {
		t.Fatal(err)
	}
	if degInfo.Kind != "pipeline" || degInfo.TotalBytes != degInfo.StateBytes {
		t.Fatalf("degraded checkpoint: %+v", degInfo)
	}
	if degInfo.TotalBytes >= fullInfo.TotalBytes {
		t.Errorf("degraded image (%d bytes) not smaller than full image (%d bytes)",
			degInfo.TotalBytes, fullInfo.TotalBytes)
	}
	if got := db.Metrics().Snapshot().Counters["checkpoint.fallback"]; got != 1 {
		t.Errorf("checkpoint.fallback = %d, want 1", got)
	}
	if res := finishFrom(t, q, degraded); res.SortedKey() != want.SortedKey() {
		t.Error("degraded checkpoint resumed to a different result")
	}
}

// TestResumeInPlacePublicAPI: with checkpoints impossible, a suspended
// execution relaunches from memory and completes with the correct result.
func TestResumeInPlacePublicAPI(t *testing.T) {
	db, inj := openTPCHFS(t, 0.02)
	q, err := db.PrepareTPCH(3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	exec := suspendArmed(t, q, PipelineLevel)

	// The disk is gone entirely.
	inj.AddFault(faultfs.Fault{Op: faultfs.OpCreate})
	if _, err := exec.Checkpoint(db.NewCheckpointPath("doomed")); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("checkpoint on dead disk: %v", err)
	}
	fresh, err := exec.ResumeInPlace(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Wait(); err != nil {
		t.Fatal(err)
	}
	res, err := fresh.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != want.SortedKey() {
		t.Error("resume-in-place result differs from clean run")
	}
	// Nothing landed on disk.
	entries, _ := os.ReadDir(db.CheckpointDir())
	for _, e := range entries {
		if strings.Contains(e.Name(), "doomed") && !strings.HasSuffix(e.Name(), checkpoint.TempSuffix) {
			t.Errorf("dead disk grew a checkpoint: %s", e.Name())
		}
	}
}
