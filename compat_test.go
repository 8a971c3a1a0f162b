package riveter

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The parent-written resume points under testdata/parent: TPC-H Q3 at
// SF 0.01 with two workers, suspended and persisted by the commit before
// the one-image rewrite — a pipeline-level checkpoint file, a process-level
// image in a blob store (key "q3"), and a sealed lineage log. To regenerate,
// copy this file into a checkout of the commit whose bytes are the reference
// and run there (it overwrites that checkout's testdata/parent)
// RIVETER_GOLDEN=parent go test -run TestParentWrittenPointsStartFrom .
const (
	compatSF    = 0.01
	compatQuery = 3
)

func openCompatDB(t *testing.T, storeDir string) *DB {
	t.Helper()
	db := Open(WithWorkers(2), WithCheckpointDir(t.TempDir()), WithBlobStore(StoreConfig{Dir: storeDir}))
	if _, err := db.BlobStore(); err != nil {
		t.Fatal(err)
	}
	if err := db.GenerateTPCH(compatSF); err != nil {
		t.Fatal(err)
	}
	return db
}

// writeCompatFixtures persists one suspension per target under dir. The
// process-level and lineage suspensions are retried with a growing head
// start until they land mid-scan, so the store image carries worker-local
// state and a cursor and the log carries morsel records to replay past.
func writeCompatFixtures(t *testing.T, dir string) {
	db := openCompatDB(t, filepath.Join(dir, "store"))
	q, err := db.PrepareTPCH(compatQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	persist := func(level Strategy, point func(*Execution) ResumePoint, midScan func(*PointInfo) bool) {
		for try := 0; try < 200; try++ {
			var exec *Execution
			if level == LineageLevel {
				exec, err = q.StartWithLineage(ctx, LineageConfig{Path: filepath.Join(dir, "q3.rvlg")})
			} else {
				exec, err = q.Start(ctx)
			}
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Duration(try) * 50 * time.Microsecond)
			if err := exec.Suspend(level); err != nil {
				t.Fatal(err)
			}
			if err := exec.Wait(); !errors.Is(err, ErrSuspended) {
				continue
			}
			info, err := exec.Persist(ctx, point(exec), PersistOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if midScan(info) {
				t.Logf("%v: %+v", level, *info)
				return
			}
		}
		t.Fatalf("no mid-scan %v suspension landed", level)
	}
	persist(PipelineLevel,
		func(*Execution) ResumePoint { return filePoint(filepath.Join(dir, "q3.rvck")) },
		func(*PointInfo) bool { return true })
	persist(ProcessLevel,
		func(*Execution) ResumePoint { return storePoint("q3") },
		func(info *PointInfo) bool { return info.TotalBytes > 1<<20 })
	persist(LineageLevel,
		func(exec *Execution) ResumePoint { return ResumePoint{Target: "lineage", Ref: exec.LineagePath()} },
		func(info *PointInfo) bool { return info.States > 0 && info.Records > 10 })
}

// copyTree copies the regular files under src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(p string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dst, rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParentWrittenPointsStartFrom proves the formats did not move: a
// checkpoint file, a store key and a lineage log written by the parent each
// verify and StartFrom here, to the result of an uninterrupted run.
func TestParentWrittenPointsStartFrom(t *testing.T) {
	if os.Getenv("RIVETER_GOLDEN") == "parent" {
		writeCompatFixtures(t, filepath.Join("testdata", "parent"))
		return
	}
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "parent"), dir)
	db := openCompatDB(t, filepath.Join(dir, "store"))
	q, err := db.PrepareTPCH(compatQuery)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []ResumePoint{
		filePoint(filepath.Join(dir, "q3.rvck")),
		storePoint("q3"),
		{Target: "lineage", Ref: filepath.Join(dir, "q3.rvlg")},
	} {
		info, err := db.Verify(at)
		if err != nil {
			t.Fatalf("verify %v: %v", at, err)
		}
		if info.Query != q.Name() {
			t.Errorf("%v: verify names query %q, want %q", at, info.Query, q.Name())
		}
		if got := finishFrom(t, q, at); got.SortedKey() != clean.SortedKey() {
			t.Errorf("%v: resumed result differs from an uninterrupted run", at)
		}
	}
}
