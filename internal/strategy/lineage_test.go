package strategy

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/riveterdb/riveter/internal/blobstore"
	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/tpch"
)

// lineageFixture compiles TPC-H Q3 over a small catalog and returns the
// catalog, plan node, and the query's clean (uninterrupted) result key.
func lineageFixture(t *testing.T) (*catalog.Catalog, plan.Node, string) {
	t.Helper()
	cat, err := tpch.Generate(tpch.Config{SF: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	q, err := tpch.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	node := q.Build(plan.NewBuilder(cat), 0.01)
	pp, err := engine.CompileWith(node, cat, engine.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ex := engine.NewExecutor(pp, engine.Options{Workers: 2})
	want, err := ex.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return cat, node, want.SortedKey()
}

// RestoreLineage compiles the plan and replays the log — the form the
// lineage tests drive restoreLineagePlan through.
func RestoreLineage(fsys faultfs.FS, cat *catalog.Catalog, node plan.Node, path string, opts engine.Options) (*engine.Executor, *LineageScan, error) {
	pp, err := engine.CompileWith(node, cat, engine.CompileOptions{})
	if err != nil {
		return nil, nil, err
	}
	return restoreLineagePlan(fsys, pp, path, opts)
}

// suspendWithLineage starts the plan with a lineage log attached and runs
// it to a process-kind suspension (what a lineage suspension arms) partway
// through, so breaker records accumulate before the final seal. It also
// returns how many breakers fired.
func suspendWithLineage(t *testing.T, cat *catalog.Catalog, node plan.Node, path string, lo LineageOptions) (*engine.Executor, *LineageLog, int) {
	t.Helper()
	pp, err := engine.CompileWith(node, cat, engine.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lin, err := CreateLineageLog(path, "Q3", pp.Fingerprint, 2, lo)
	if err != nil {
		t.Fatal(err)
	}
	breakers := 0
	ex := engine.NewExecutor(pp, engine.Options{
		Workers: 2,
		OnBreaker: func(ev *engine.BreakerEvent) engine.BreakerAction {
			breakers++
			return lin.OnBreaker(ev)
		},
	})
	ex.SuspendWhen(engine.KindProcess, 1<<19)
	if _, err := ex.Run(context.Background()); !errors.Is(err, engine.ErrSuspended) {
		t.Fatalf("run err = %v, want ErrSuspended", err)
	}
	if err := lin.Err(); err != nil {
		t.Fatalf("lineage log unhealthy: %v", err)
	}
	return ex, lin, breakers
}

// runWithLineage suspends the plan via the lineage strategy and returns
// what the seal reported.
func runWithLineage(t *testing.T, cat *catalog.Catalog, node plan.Node, path string, lo LineageOptions) *PointInfo {
	t.Helper()
	ex, lin, _ := suspendWithLineage(t, cat, node, path, lo)
	res, err := lin.Seal(ex.Suspended())
	if err != nil {
		t.Fatal(err)
	}
	if err := lin.Close(); err != nil {
		t.Fatal(err)
	}
	return res
}

// newStore opens a blob store over a fresh local directory.
func newStore(t *testing.T) *blobstore.Store {
	t.Helper()
	be, err := blobstore.NewLocal(nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := blobstore.New(blobstore.Config{Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestLineageSealWritesTenthOfProcessImage is lineage's acceptance ratio
// in bytes: suspending by sealing the write-ahead log writes at most 10 %
// of what persisting the process image of the same suspension writes —
// the image's bytes on the file target, its upload on the store target.
func TestLineageSealWritesTenthOfProcessImage(t *testing.T) {
	cat, node, _ := lineageFixture(t)
	for _, target := range []Target{TargetFile, TargetStore} {
		t.Run(string(target), func(t *testing.T) {
			dir := t.TempDir()
			var sm Seam
			ref := filepath.Join(dir, "q3.rvck")
			if target == TargetStore {
				sm.Store = newStore(t)
				ref = "q3"
			}
			ex, lin, _ := suspendWithLineage(t, cat, node, filepath.Join(dir, "q3.rvlg"), LineageOptions{})
			defer lin.Close()
			img, err := sm.Persist(context.Background(), Run{Ex: ex}, "Q3", ResumePoint{Target: target, Ref: ref}, PersistOptions{})
			if err != nil {
				t.Fatal(err)
			}
			imgBytes := img.TotalBytes
			if target == TargetStore {
				imgBytes = img.UploadedBytes
			}
			seal, err := lin.Seal(ex.Suspended())
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("seal %d bytes, process image %d bytes (%.2f %%)", seal.TailBytes, imgBytes, 100*float64(seal.TailBytes)/float64(imgBytes))
			if seal.TailBytes <= 0 || 10*seal.TailBytes > imgBytes {
				t.Errorf("seal wrote %d bytes, above 10 %% of the process image's %d", seal.TailBytes, imgBytes)
			}
		})
	}
}

func TestLineageKindName(t *testing.T) {
	if got := Lineage.String(); got != "lineage" {
		t.Errorf("Lineage renders %q, want %q", got, "lineage")
	}
}

func TestLineageRoundTrip(t *testing.T) {
	cat, node, want := lineageFixture(t)
	path := filepath.Join(t.TempDir(), "q3.rvlg")
	ex, lin, breakers := suspendWithLineage(t, cat, node, path, LineageOptions{})
	res, err := lin.Seal(ex.Suspended())
	if err != nil {
		t.Fatal(err)
	}
	if err := lin.Close(); err != nil {
		t.Fatal(err)
	}

	if res.Records == 0 || res.Seals == 0 {
		t.Fatalf("seal result empty: %+v", res)
	}
	// The suspension's marginal I/O is the unsealed tail, not the whole
	// log: with per-breaker sealing the tail must be far smaller than the
	// accumulated log.
	if res.TailBytes >= res.LogBytes {
		t.Errorf("tail %d >= log %d: seal flushed more than the tail", res.TailBytes, res.LogBytes)
	}

	scan, err := ScanLineage(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Torn() {
		t.Fatalf("clean log scanned as torn at %d: %s", scan.TornOffset, scan.TornErr)
	}
	if scan.Meta.Query != "Q3" || scan.Seals != 1 {
		t.Errorf("scan = %+v", scan)
	}
	// The log is exactly what recovery reads: the meta record, one state
	// record per breaker fired, and the seal record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	types := map[byte]int{}
	for off := int64(len(lineageMagic) + 1); off < int64(len(data)); {
		typ, _, next, torn := readLineageRecord(data, off)
		if torn != "" {
			t.Fatalf("record at %d: %s", off, torn)
		}
		types[typ]++
		off = next
	}
	if breakers == 0 || types[recLineageMeta] != 1 || types[recLineageState] != breakers || types[recLineageSeal] != 1 || len(types) != 3 {
		t.Errorf("log records by type = %v, want 1 meta, %d state, 1 seal and nothing else", types, breakers)
	}
	if scan.Records != 2+breakers || scan.States != breakers {
		t.Errorf("scan counted %d records, %d states; want %d, %d", scan.Records, scan.States, 2+breakers, breakers)
	}

	ex2, scan2, err := RestoreLineage(nil, cat, node, path, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if scan2.States > 0 && scan2.LastState == nil {
		t.Error("restore dropped the inline state")
	}
	got, err := ex2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.SortedKey() != want {
		t.Error("lineage-replayed result differs from clean run")
	}
}

// TestLineageReplayWorkerCountFlexible replays under a different worker
// count: lineage states are pipeline-kind, which any configuration loads.
func TestLineageReplayWorkerCountFlexible(t *testing.T) {
	cat, node, want := lineageFixture(t)
	path := filepath.Join(t.TempDir(), "q3.rvlg")
	runWithLineage(t, cat, node, path, LineageOptions{})

	ex2, _, err := RestoreLineage(nil, cat, node, path, engine.Options{Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ex2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.SortedKey() != want {
		t.Error("replay under different worker count differs")
	}
}

// TestLineageEmptyLogReplays replays a log sealed before any breaker
// fired: the replay is simply a fresh run.
func TestLineageEmptyLogReplays(t *testing.T) {
	cat, node, want := lineageFixture(t)
	pp, _ := engine.CompileWith(node, cat, engine.CompileOptions{})
	path := filepath.Join(t.TempDir(), "empty.rvlg")
	lin, err := CreateLineageLog(path, "Q3", pp.Fingerprint, 2, LineageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lin.Seal(nil); err != nil {
		t.Fatal(err)
	}
	lin.Close()

	ex, scan, err := RestoreLineage(nil, cat, node, path, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if scan.States != 0 {
		t.Errorf("states = %d, want 0", scan.States)
	}
	got, err := ex.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.SortedKey() != want {
		t.Error("empty-log replay differs")
	}
}

// TestLineageTornTailTruncated appends garbage after a sealed log and
// checks the scan truncates exactly at the garbage and the replay still
// produces the correct result.
func TestLineageTornTailTruncated(t *testing.T) {
	cat, node, want := lineageFixture(t)
	path := filepath.Join(t.TempDir(), "q3.rvlg")
	runWithLineage(t, cat, node, path, LineageOptions{})

	clean, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{recLineageState, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	scan, err := ScanLineage(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if !scan.Torn() {
		t.Fatal("garbage tail not detected")
	}
	if scan.TornOffset != clean.Size() {
		t.Errorf("torn offset = %d, want %d", scan.TornOffset, clean.Size())
	}
	if scan.ValidBytes != clean.Size() {
		t.Errorf("valid bytes = %d, want %d", scan.ValidBytes, clean.Size())
	}

	ex, scan2, err := RestoreLineage(nil, cat, node, path, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !scan2.Torn() {
		t.Error("restore scan lost the torn flag")
	}
	got, err := ex.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.SortedKey() != want {
		t.Error("replay of torn-truncated log differs")
	}
}

func TestLineageRestoreRejectsWrongPlan(t *testing.T) {
	cat, node, _ := lineageFixture(t)
	path := filepath.Join(t.TempDir(), "q3.rvlg")
	runWithLineage(t, cat, node, path, LineageOptions{})

	q6, _ := tpch.Get(6)
	node6 := q6.Build(plan.NewBuilder(cat), 0.01)
	if _, _, err := RestoreLineage(nil, cat, node6, path, engine.Options{Workers: 2}); err == nil {
		t.Fatal("replaying into a different plan must fail")
	}
}

func TestLineageSecondSuspension(t *testing.T) {
	// A lineage-resumed execution must itself be lineage-suspendable:
	// restore with fresh hooks, suspend mid-replay, seal the new log, and
	// replay that — the result must still match.
	cat, node, want := lineageFixture(t)
	dir := t.TempDir()
	first := filepath.Join(dir, "first.rvlg")
	runWithLineage(t, cat, node, first, LineageOptions{})

	pp, err := engine.CompileWith(node, cat, engine.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second := filepath.Join(dir, "second.rvlg")
	lin2, err := CreateLineageLog(second, "Q3", pp.Fingerprint, 2, LineageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ex, _, err := restoreLineagePlan(nil, pp, first, engine.Options{
		Workers:   2,
		OnBreaker: lin2.OnBreaker,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex.RequestSuspend(engine.KindProcess)
	_, err = ex.Run(context.Background())
	switch {
	case errors.Is(err, engine.ErrSuspended):
		if _, err := lin2.Seal(ex.Suspended()); err != nil {
			t.Fatal(err)
		}
		lin2.Close()
		ex3, _, err := RestoreLineage(nil, cat, node, second, engine.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ex3.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got.SortedKey() != want {
			t.Error("second-suspension replay differs")
		}
	case err == nil:
		// The replay finished before the suspension took effect — legal
		// (little work remained); the result must still be right.
		t.Log("replay completed before second suspension landed")
	default:
		t.Fatal(err)
	}
}
