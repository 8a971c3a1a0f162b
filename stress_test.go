package riveter

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
)

// TestNewCheckpointPathUnique allocates paths from many goroutines and
// verifies they never collide (the serving layer checkpoints concurrent
// sessions into one directory).
func TestNewCheckpointPathUnique(t *testing.T) {
	db := Open(WithCheckpointDir(t.TempDir()))
	const n = 64
	paths := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			paths[i] = db.NewCheckpointPath("sess/../weird name")
		}(i)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, p := range paths {
		if seen[p] {
			t.Fatalf("duplicate checkpoint path %s", p)
		}
		seen[p] = true
		if dir := db.CheckpointDir(); len(p) <= len(dir) || p[:len(dir)] != dir {
			t.Fatalf("path %s escapes checkpoint dir %s", p, dir)
		}
	}
}

func TestQueryEstimate(t *testing.T) {
	db := openTPCH(t, 0.005)
	q, err := db.PrepareTPCH(21)
	if err != nil {
		t.Fatal(err)
	}
	est := q.Estimate()
	if est.InputBytes <= 0 {
		t.Errorf("estimate has empty fields: %+v", est)
	}
	if est.StateBytes <= 0 {
		t.Errorf("join query must price intermediate state: %+v", est)
	}
	short, err := db.Prepare("SELECT count(*) FROM region")
	if err != nil {
		t.Fatal(err)
	}
	if s := short.Estimate(); s.InputBytes >= est.InputBytes {
		t.Errorf("tiny scan (%d input bytes) must undercut Q21 (%d)", s.InputBytes, est.InputBytes)
	}
}

// TestConcurrentSuspendResumeStress drives many concurrent
// Start/Suspend/Checkpoint/Resume cycles against one DB; run under -race
// this is the shared-state audit of the serving layer's access pattern.
func TestConcurrentSuspendResumeStress(t *testing.T) {
	db := openTPCH(t, 0.01)
	ctx := context.Background()
	qids := []int{1, 3, 6}
	want := map[int]string{}
	for _, id := range qids {
		q, err := db.PrepareTPCH(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = res.SortedKey()
	}

	const workers = 6
	const iters = 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := qids[w%len(qids)]
			q, err := db.PrepareTPCH(id)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			for it := 0; it < iters; it++ {
				exec, err := q.Start(ctx)
				if err != nil {
					t.Errorf("worker %d: start: %v", w, err)
					return
				}
				if err := exec.Suspend(PipelineLevel); err != nil {
					t.Errorf("worker %d: suspend: %v", w, err)
					return
				}
				werr := exec.Wait()
				var key string
				switch {
				case werr == nil:
					res, err := exec.Result()
					if err != nil {
						t.Errorf("worker %d: result: %v", w, err)
						return
					}
					key = res.SortedKey()
				case errors.Is(werr, ErrSuspended):
					path := db.NewCheckpointPath(fmt.Sprintf("stress-%d-%d", w, it))
					if _, err := exec.Checkpoint(path); err != nil {
						t.Errorf("worker %d: checkpoint: %v", w, err)
						return
					}
					resumed, err := q.StartFrom(ctx, filePoint(path), nil)
					if err != nil {
						t.Errorf("worker %d: resume: %v", w, err)
						return
					}
					res, err := resumed.Result()
					if err != nil {
						t.Errorf("worker %d: resumed run: %v", w, err)
						return
					}
					key = res.SortedKey()
					os.Remove(path)
				default:
					t.Errorf("worker %d: wait: %v", w, werr)
					return
				}
				if key != want[id] {
					t.Errorf("worker %d iter %d: Q%d result diverged", w, it, id)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestStartFromCheckpoint checks the re-suspendable resume path end to
// end: suspend, checkpoint, StartFromCheckpoint, suspend the continuation
// again, checkpoint, and finish from the second checkpoint.
func TestStartFromCheckpoint(t *testing.T) {
	db := openTPCH(t, 0.02)
	q, err := db.PrepareTPCH(21)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := q.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	exec := suspendArmed(t, q, PipelineLevel)
	ck1 := db.NewCheckpointPath("sfc")
	if _, err := exec.Checkpoint(ck1); err != nil {
		t.Fatal(err)
	}

	cont, err := q.StartFromCheckpoint(ctx, ck1)
	if err != nil {
		t.Fatal(err)
	}
	_ = cont.Suspend(PipelineLevel)
	werr := cont.Wait()
	switch {
	case werr == nil:
		res, err := cont.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.SortedKey() != want.SortedKey() {
			t.Error("continued result differs")
		}
	case errors.Is(werr, ErrSuspended):
		ck2 := db.NewCheckpointPath("sfc")
		if _, err := cont.Checkpoint(ck2); err != nil {
			t.Fatal(err)
		}
		if res := finishFrom(t, q, filePoint(ck2)); res.SortedKey() != want.SortedKey() {
			t.Error("twice-suspended result differs from clean run")
		}
	default:
		t.Fatal(werr)
	}
}
