package riveter

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// filePoint and storePoint name resume points for the tests.
func filePoint(path string) ResumePoint { return ResumePoint{Target: "file", Ref: path} }
func storePoint(key string) ResumePoint { return ResumePoint{Target: "store", Ref: key} }

// finishFrom resumes q from at and runs it to completion.
func finishFrom(t testing.TB, q *Query, at ResumePoint) *Result {
	t.Helper()
	exec, err := q.StartFrom(context.Background(), at, nil)
	if err != nil {
		t.Fatalf("start from %v: %v", at, err)
	}
	res, err := exec.Result()
	if err != nil {
		t.Fatalf("resumed run from %v: %v", at, err)
	}
	if lp := exec.LineagePath(); lp != "" {
		_ = q.db.RemoveLineage(lp)
	}
	return res
}

// seamTarget is one row of the contract table: how an execution headed for
// the target starts and suspends, where its state goes, and the bytes to
// damage on disk.
type seamTarget struct {
	name  string
	query int // TPC-H id: enough breakers (or morsels) left for a second suspension
	level Strategy
	// point names where exec's state is persisted; n numbers the point
	// within the test.
	point func(db *DB, exec *Execution, n int) ResumePoint
	// backing is the file a byte flip in which must fail Verify.
	backing func(t *testing.T, db *DB, at ResumePoint) string
	// check asserts what Persist must report for this target.
	check func(t *testing.T, info *PointInfo)
}

var seamTargets = []seamTarget{
	{
		name: "file-pipeline", query: 3, level: PipelineLevel,
		point:   func(db *DB, _ *Execution, n int) ResumePoint { return filePoint(db.NewCheckpointPath("seam")) },
		backing: func(_ *testing.T, _ *DB, at ResumePoint) string { return at.Ref },
		check: func(t *testing.T, info *PointInfo) {
			if info.Kind != "pipeline" || info.StateBytes <= 0 || info.TotalBytes != info.StateBytes || info.Path == "" {
				t.Errorf("file/pipeline persist info = %+v", info)
			}
		},
	},
	{
		name: "file-process", query: 1, level: ProcessLevel,
		point:   func(db *DB, _ *Execution, n int) ResumePoint { return filePoint(db.NewCheckpointPath("seam")) },
		backing: func(_ *testing.T, _ *DB, at ResumePoint) string { return at.Ref },
		check: func(t *testing.T, info *PointInfo) {
			if info.Kind != "process" || info.TotalBytes <= info.StateBytes {
				t.Errorf("file/process persist info = %+v (a process image carries padding)", info)
			}
		},
	},
	{
		name: "store", query: 1, level: ProcessLevel,
		point: func(_ *DB, _ *Execution, n int) ResumePoint {
			return storePoint(fmt.Sprintf("seam-%d", n))
		},
		backing: func(t *testing.T, db *DB, at ResumePoint) string {
			// Any chunk the manifest references: flip a byte of the first.
			st, err := db.BlobStore()
			if err != nil {
				t.Fatal(err)
			}
			sm, err := st.ReadStoreManifest(at.Ref)
			if err != nil || len(sm.Chunks) == 0 {
				t.Fatalf("store manifest %s: %+v, %v", at.Ref, sm, err)
			}
			return findFile(t, db.storeCfg.Dir, sm.Chunks[0].Digest)
		},
		check: func(t *testing.T, info *PointInfo) {
			if info.Kind != "process" || info.Chunks == 0 || info.UploadedBytes <= 0 {
				t.Errorf("store persist info = %+v", info)
			}
		},
	},
	{
		name: "lineage", query: 1, level: LineageLevel,
		point: func(_ *DB, exec *Execution, _ int) ResumePoint {
			return ResumePoint{Target: "lineage", Ref: exec.LineagePath()}
		},
		backing: func(_ *testing.T, _ *DB, at ResumePoint) string { return at.Ref },
		check: func(t *testing.T, info *PointInfo) {
			if info.Kind != "lineage" || info.Seals < 1 || info.LogBytes <= 0 || info.TailBytes > info.LogBytes {
				t.Errorf("lineage persist info = %+v", info)
			}
		},
	},
}

// findFile locates the file under root whose name contains part.
func findFile(t *testing.T, root, part string) string {
	t.Helper()
	var found string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.Contains(d.Name(), part) {
			found = p
		}
		return err
	})
	if err != nil || found == "" {
		t.Fatalf("no file named like %q under %s (%v)", part, root, err)
	}
	return found
}

// suspend requests the target's suspension and reports whether it landed
// before the query finished.
func (tg seamTarget) suspend(t *testing.T, exec *Execution) bool {
	t.Helper()
	if err := exec.Suspend(tg.level); err != nil {
		t.Fatalf("suspend: %v", err)
	}
	err := exec.Wait()
	if err == nil {
		return false
	}
	if !errors.Is(err, ErrSuspended) {
		t.Fatalf("Wait = %v", err)
	}
	return true
}

// TestSeamContract is the one lifecycle every target must honour: persist →
// verify ok → start-from → result identical to an uninterrupted run, with a
// second suspension and persist mid-resume; a flipped byte → verify fails →
// quarantine → start-from errors, never panics; discard → the ref is gone.
func TestSeamContract(t *testing.T) {
	for _, tg := range seamTargets {
		t.Run(tg.name, func(t *testing.T) {
			db := openTPCHStore(t, 0.02, t.TempDir())
			ctx := context.Background()
			q, err := db.PrepareTPCH(tg.query)
			if err != nil {
				t.Fatal(err)
			}
			clean, err := q.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want := clean.SortedKey()

			// suspendInto starts a run, suspends it, and persists it to a
			// fresh point, checking what Persist and Verify report.
			points := 0
			suspendInto := func() (*Execution, ResumePoint) {
				exec := suspendArmed(t, q, tg.level)
				at := tg.point(db, exec, points)
				points++
				info, err := exec.Persist(ctx, at, PersistOptions{})
				if err != nil {
					t.Fatalf("persist: %v", err)
				}
				tg.check(t, info)
				seen, err := db.Verify(at)
				if err != nil {
					t.Fatalf("verify after persist: %v", err)
				}
				if seen.Kind != info.Kind || seen.StateBytes != info.StateBytes || seen.Query != q.Name() {
					t.Errorf("verify sees %+v, persist wrote %+v", seen, info)
				}
				return exec, at
			}

			// Resume, suspend again mid-resume, persist again: the second
			// point alone must carry the query to the right result.
			exec, first := suspendInto()
			resumed, err := q.StartFrom(ctx, first, exec)
			if err != nil {
				t.Fatalf("start from: %v", err)
			}
			if tg.suspend(t, resumed) {
				second := tg.point(db, resumed, points)
				points++
				if _, err := resumed.Persist(ctx, second, PersistOptions{}); err != nil {
					t.Fatalf("second persist: %v", err)
				}
				if got := finishFrom(t, q, second); got.SortedKey() != want {
					t.Error("result after two suspension round trips differs from clean run")
				}
				if err := db.Discard(second); err != nil {
					t.Errorf("discard second point: %v", err)
				}
			} else {
				res, err := resumed.Result()
				if err != nil {
					t.Fatal(err)
				}
				if res.SortedKey() != want {
					t.Error("resumed result differs from clean run")
				}
				_ = db.RemoveLineage(resumed.LineagePath())
			}
			// A point is not consumed by resuming from it.
			if got := finishFrom(t, q, first); got.SortedKey() != want {
				t.Error("first point no longer resumes to the clean result")
			}

			// Discard: the ref is gone (store: manifest and claim released).
			_, spare := suspendInto()
			st, _ := db.BlobStore()
			if spare.Target == "store" {
				if ok, err := st.Claim(spare.Ref, "seam-test", ""); err != nil || !ok {
					t.Fatalf("claim = %v, %v", ok, err)
				}
			}
			if err := db.Discard(spare); err != nil {
				t.Fatalf("discard: %v", err)
			}
			if _, err := db.Verify(spare); err == nil {
				t.Error("verify passed on a discarded point")
			}
			if _, err := q.StartFrom(ctx, spare, nil); err == nil {
				t.Error("start from a discarded point succeeded")
			}
			if _, held, _ := st.ClaimInfo(spare.Ref); held {
				t.Error("discard left the store claim behind")
			}

			// Damage: one flipped byte must fail Verify, and the quarantined
			// point must not start.
			backing := tg.backing(t, db, first)
			data, err := os.ReadFile(backing)
			if err != nil {
				t.Fatal(err)
			}
			// Offset 40 sits in every format's checksummed header region (a
			// lineage log tolerates damage further in: it truncates there).
			data[min(40, len(data)/2)] ^= 0xff
			if err := os.WriteFile(backing, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Verify(first); err == nil {
				t.Fatal("verify passed on a point with a flipped byte")
			}
			moved, err := db.Quarantine(first)
			if err != nil {
				t.Fatalf("quarantine: %v", err)
			}
			if moved.Target != first.Target {
				t.Errorf("quarantine moved %v to %v", first, moved)
			}
			if _, err := q.StartFrom(ctx, first, nil); err == nil {
				t.Error("start from a quarantined point succeeded")
			}
		})
	}
}
