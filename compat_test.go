package riveter

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// The parent-written resume points under testdata/parent, all at SF 0.01
// with two workers, written by the commit that introduced state format v6:
// TPC-H Q3, suspended and persisted as a pipeline-level checkpoint file, a
// process-level image in a blob store (key "q3") and a sealed lineage log,
// whose join builds store each column once behind their row count, and
// only the columns of the pruned plan (customer keys, not segments); and
// compatAggSQL (store key "agg"), suspended process-level in the middle of
// its aggregation, so the image holds both workers' local aggregate tables
// in the layout v3 introduced. To regenerate, copy this file into a checkout of
// the commit whose bytes are the reference and run there (it overwrites
// that checkout's testdata/parent)
// RIVETER_GOLDEN=parent go test -run TestParentWrittenPointsStartFrom .
// for the Q3 points, RIVETER_GOLDEN=parent-agg for the aggregation point.
const (
	compatSF    = 0.01
	compatQuery = 3
	// compatAggSQL folds every aggregate function, DISTINCT included, over
	// doubles, integers, dates and strings into four groups, one of them the
	// NULL an ELSE-less CASE yields.
	compatAggSQL = `SELECT CASE WHEN l_quantity < 25 THEN l_returnflag END AS band,
		sum(l_extendedprice), sum(l_linenumber), avg(l_discount), min(l_shipdate),
		max(l_shipmode), count(l_comment), count(*), count(DISTINCT l_suppkey)
		FROM lineitem GROUP BY band`
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

// writeCompatFixtures persists one suspension per target under dir. Each
// is placed at a growing fraction of a clean run's processed bytes until
// it lands mid-scan, so the store image carries worker-local state and a
// cursor and the log a breaker state to replay from. Every attempt that
// does not is discarded, so a failed run leaves no point behind.
func writeCompatFixtures(t *testing.T, dir string, aggOnly bool) {
	db := openCompatDB(t, filepath.Join(dir, "store"))
	q3, err := db.PrepareTPCH(compatQuery)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := db.Prepare(compatAggSQL)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the chunks of the attempts that were not kept.
	defer func() {
		st, err := db.BlobStore()
		if err == nil {
			_, err = st.GC()
		}
		if err != nil {
			t.Error(err)
		}
	}()
	ctx := context.Background()
	persist := func(q *Query, level Strategy, point func(*Execution) ResumePoint, midScan func(*PointInfo) bool) {
		clean, err := q.Start(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := clean.Result(); err != nil {
			t.Fatal(err)
		}
		total := clean.ProcessedBytes()
		const steps = 20
		for step := int64(1); step < steps; step++ {
			var lineage *LineageConfig
			if level == LineageLevel {
				lineage = &LineageConfig{Path: filepath.Join(dir, "q3.rvlg")}
			}
			exec, err := q.start(lineage)
			if err != nil {
				t.Fatal(err)
			}
			if err := exec.SuspendWhen(level, total*step/steps); err != nil {
				t.Fatal(err)
			}
			if err := exec.launch(ctx).Wait(); !errors.Is(err, ErrSuspended) {
				if level == LineageLevel {
					_ = db.RemoveLineage(exec.LineagePath())
				}
				continue
			}
			at := point(exec)
			info, err := exec.Persist(ctx, at, PersistOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if midScan(info) {
				t.Logf("%v at %d/%d of %d bytes: %+v", level, step, steps, total, *info)
				return
			}
			if err := db.Discard(at); err != nil {
				t.Fatal(err)
			}
		}
		t.Fatalf("no mid-scan %v suspension landed", level)
	}
	// The finalized aggregate is four rows, about 200 bytes of state; a
	// state above 1 KiB is the two workers' local tables with their
	// DISTINCT pairs, i.e. mid-aggregation.
	if aggOnly {
		persist(agg, ProcessLevel,
			func(*Execution) ResumePoint { return storePoint("agg") },
			func(info *PointInfo) bool { return info.StateBytes > 1<<10 })
		return
	}
	persist(q3, PipelineLevel,
		func(*Execution) ResumePoint { return filePoint(filepath.Join(dir, "q3.rvck")) },
		func(*PointInfo) bool { return true })
	persist(q3, ProcessLevel,
		func(*Execution) ResumePoint { return storePoint("q3") },
		func(info *PointInfo) bool { return info.TotalBytes > 1<<20 })
	persist(q3, LineageLevel,
		func(exec *Execution) ResumePoint { return ResumePoint{Target: "lineage", Ref: exec.LineagePath()} },
		func(info *PointInfo) bool { return info.States > 0 })
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
	if golden := os.Getenv("RIVETER_GOLDEN"); golden == "parent" || golden == "parent-agg" {
		writeCompatFixtures(t, filepath.Join("testdata", "parent"), golden == "parent-agg")
		return
	}
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "parent"), dir)
	db := openCompatDB(t, filepath.Join(dir, "store"))
	q3, err := db.PrepareTPCH(compatQuery)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := db.Prepare(compatAggSQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q  *Query
		at ResumePoint
	}{
		{q3, filePoint(filepath.Join(dir, "q3.rvck"))},
		{q3, storePoint("q3")},
		{q3, ResumePoint{Target: "lineage", Ref: filepath.Join(dir, "q3.rvlg")}},
		{agg, storePoint("agg")},
	} {
		clean, err := c.q.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		info, err := db.Verify(c.at)
		if err != nil {
			t.Fatalf("verify %v: %v", c.at, err)
		}
		if info.Query != c.q.Name() {
			t.Errorf("%v: verify names query %q, want %q", c.at, info.Query, c.q.Name())
		}
		if got := finishFrom(t, c.q, c.at); got.SortedKey() != clean.SortedKey() {
			t.Errorf("%v: resumed result differs from an uninterrupted run", c.at)
		}
	}
}
