package riveter

import (
	"context"
	"path/filepath"
	"sync"
	"testing"
)

func openTPCH(t testing.TB, sf float64) *DB {
	t.Helper()
	db := Open(WithWorkers(2), WithCheckpointDir(t.TempDir()))
	if err := db.GenerateTPCH(sf); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenAndGenerate(t *testing.T) {
	db := openTPCH(t, 0.005)
	tables := db.Tables()
	if len(tables) != 8 {
		t.Fatalf("tables = %v", tables)
	}
	n, err := db.NumRows("lineitem")
	if err != nil || n == 0 {
		t.Fatalf("lineitem rows = %d, %v", n, err)
	}
	if _, err := db.NumRows("nope"); err == nil {
		t.Error("missing table must error")
	}
	if db.Workers() != 2 {
		t.Error("workers option lost")
	}
}

func TestSQLQuery(t *testing.T) {
	db := openTPCH(t, 0.005)
	res, err := db.Query(context.Background(), `
		SELECT l_returnflag, count(*) AS n, sum(l_extendedprice) AS total
		FROM lineitem
		GROUP BY l_returnflag
		ORDER BY l_returnflag`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Fatalf("return flags = %d", res.NumRows())
	}
	if res.String() == "" {
		t.Error("result must render")
	}
	if _, err := db.Query(context.Background(), "SELECT bogus FROM lineitem"); err == nil {
		t.Error("bad SQL must error")
	}
}

func TestPrepareTPCHAndRun(t *testing.T) {
	db := openTPCH(t, 0.005)
	q, err := db.PrepareTPCH(6)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name() != "Q6" || q.Plan() == "" {
		t.Error("query metadata missing")
	}
	res, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Fatalf("Q6 rows = %d", res.NumRows())
	}
	if _, err := db.PrepareTPCH(99); err == nil {
		t.Error("bad query id must error")
	}
	empty := Open(WithCheckpointDir(t.TempDir()))
	if _, err := empty.PrepareTPCH(1); err == nil {
		t.Error("PrepareTPCH without data must error")
	}
}

func TestSuspendOnCompletedExecution(t *testing.T) {
	db := openTPCH(t, 0.005)
	q, _ := db.PrepareTPCH(6)
	exec, err := q.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.Wait(); err != nil {
		t.Fatal(err)
	}
	if res, err := exec.Result(); err != nil || res.NumRows() != 1 {
		t.Fatalf("result = %v, %v", res, err)
	}
	if _, err := exec.Checkpoint(filepath.Join(db.CheckpointDir(), "x.rvck")); err == nil {
		t.Error("checkpointing a completed execution must fail")
	}
	if err := exec.Suspend(Redo); err == nil {
		t.Error("Suspend(Redo) must be rejected")
	}
}

func TestSaveLoadDir(t *testing.T) {
	db := openTPCH(t, 0.002)
	dir := filepath.Join(t.TempDir(), "data")
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	db2 := Open(WithCheckpointDir(t.TempDir()))
	if err := db2.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	n1, _ := db.NumRows("orders")
	n2, _ := db2.NumRows("orders")
	if n1 != n2 || n1 == 0 {
		t.Fatalf("orders rows %d vs %d", n1, n2)
	}
	res, err := db2.Query(context.Background(), "SELECT count(*) AS n FROM orders")
	if err != nil || res.Row(0)[0].I != n1 {
		t.Fatalf("query over loaded data: %v, %v", res, err)
	}
	if err := db2.LoadDir(t.TempDir()); err == nil {
		t.Error("empty dir must error")
	}
}

// TestPrepareTPCHConcurrentAfterLoadDir: a DB loaded from disk derives
// the TPC-H scale factor at each PrepareTPCH, and concurrent calls (a
// server's submits) share nothing they write; run it under -race. Each
// plan matches the one the generating DB prepares.
func TestPrepareTPCHConcurrentAfterLoadDir(t *testing.T) {
	db := openTPCH(t, 0.002)
	dir := filepath.Join(t.TempDir(), "data")
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded := Open(WithCheckpointDir(t.TempDir()))
	if err := loaded.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for id := 1; id <= 4; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want, err := db.PrepareTPCH(id)
			if err != nil {
				t.Error(err)
				return
			}
			got, err := loaded.PrepareTPCH(id)
			if err != nil {
				t.Error(err)
				return
			}
			if got.Fingerprint() != want.Fingerprint() {
				t.Errorf("Q%d: the loaded DB's plan differs from the generating DB's", id)
			}
		}()
	}
	wg.Wait()
}

func TestAdaptiveAPI(t *testing.T) {
	db := openTPCH(t, 0.02)
	q, err := db.PrepareTPCH(3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := q.NewAdaptive()
	if err != nil {
		t.Fatal(err)
	}
	if a.NormalTime() <= 0 {
		t.Fatal("calibration missing")
	}
	// Window far beyond the query lifetime: completes untouched.
	rep, err := a.Run(Scenario{Probability: 1, WindowStartFrac: 50, WindowEndFrac: 60})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Suspended || rep.Terminated {
		t.Errorf("far-window run should complete clean: %+v", rep)
	}
	// Forced sizing measurement.
	srep, err := a.SuspendAt(ProcessLevel, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if srep.Suspended && srep.PersistedBytes <= 0 {
		t.Error("suspended without bytes")
	}
}
