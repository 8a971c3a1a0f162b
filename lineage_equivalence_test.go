package riveter

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

// The strategy-equivalence property: for every TPC-H query, a run
// interrupted by ANY suspension strategy — lineage seal+replay, pipeline
// checkpoint, process checkpoint — produces a result byte-identical to the
// uninterrupted run. For lineage this includes a second suspension landing
// mid-replay: the replayed execution carries a fresh log and is itself
// suspendable, indefinitely.

// lineageSuspend drives e to a sealed lineage log. The bool reports whether
// a suspension actually landed; when the query finished first, the result
// is verified against want and the log is discarded.
func lineageSuspend(t *testing.T, db *DB, e *Execution, want string) (string, bool) {
	t.Helper()
	if err := e.Suspend(LineageLevel); err != nil {
		t.Fatal(err)
	}
	werr := e.Wait()
	if werr == nil {
		res, err := e.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.SortedKey() != want {
			t.Fatal("uninterrupted lineage-logged result differs from clean run")
		}
		_ = db.RemoveLineage(e.LineagePath())
		return "", false
	}
	if !errors.Is(werr, ErrSuspended) {
		t.Fatalf("Wait = %v", werr)
	}
	info, err := e.SealLineage()
	if err != nil {
		t.Fatalf("seal: %v", err)
	}
	if info.Seals < 1 || info.LogBytes <= 0 || info.TailBytes > info.LogBytes {
		t.Fatalf("implausible seal info: %+v", info)
	}
	return info.Path, true
}

// checkpointEquivalence interrupts one run at the given level, checkpoints,
// resumes, and compares against the clean result.
func checkpointEquivalence(t *testing.T, db *DB, q *Query, level Strategy, want string) {
	t.Helper()
	ctx := context.Background()
	exec, err := q.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_ = exec.Suspend(level)
	werr := exec.Wait()
	if werr == nil {
		return // finished before the suspension landed; nothing to resume
	}
	if !errors.Is(werr, ErrSuspended) {
		t.Fatalf("Wait = %v", werr)
	}
	path := filepath.Join(db.CheckpointDir(), fmt.Sprintf("eq-%s-%d.rvck", q.Name(), level))
	if _, err := exec.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	defer db.FS().Remove(path)
	if res := finishFrom(t, q, filePoint(path)); res.SortedKey() != want {
		t.Errorf("%s checkpoint resume differs from clean run", level)
	}
}

func TestLineageEquivalenceAllTPCH(t *testing.T) {
	db := openTPCH(t, 0.01)
	ctx := context.Background()
	for i := 1; i <= 22; i++ {
		t.Run(fmt.Sprintf("Q%d", i), func(t *testing.T) {
			q, err := db.PrepareTPCH(i)
			if err != nil {
				t.Fatal(err)
			}
			clean, err := q.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want := clean.SortedKey()

			// The lineage round trip, with a second suspension mid-replay.
			e1, err := q.StartWithLineage(ctx, LineageConfig{})
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
			log1, suspended := lineageSuspend(t, db, e1, want)
			if suspended {
				defer db.RemoveLineage(log1)
				e2, err := q.StartFromLineage(ctx, log1, LineageConfig{})
				if err != nil {
					t.Fatalf("replay start: %v", err)
				}
				log2, again := lineageSuspend(t, db, e2, want)
				if again {
					// Sealed mid-replay: the second log alone must carry the
					// query to the correct result.
					defer db.RemoveLineage(log2)
					if res := finishFrom(t, q, ResumePoint{Target: "lineage", Ref: log2}); res.SortedKey() != want {
						t.Error("twice-suspended lineage result differs from clean run")
					}
				}
			}

			// The checkpoint strategies agree too.
			checkpointEquivalence(t, db, q, PipelineLevel, want)
			checkpointEquivalence(t, db, q, ProcessLevel, want)
		})
	}
}
