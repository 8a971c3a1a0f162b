package riveter

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"github.com/riveterdb/riveter/internal/obs"
)

// openFoldTPCH opens a fold-enabled database over the same deterministic
// TPC-H data openTPCH generates, so results are comparable across the two.
func openFoldTPCH(t testing.TB, sf float64) *DB {
	t.Helper()
	db := Open(WithWorkers(2), WithCheckpointDir(t.TempDir()), WithTracing(), WithFold())
	if err := db.GenerateTPCH(sf); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestFoldEquivalenceTPCH is the shared-execution correctness property: for
// every TPC-H query, a fold-enabled database — scans riding shared hubs —
// returns results byte-identical to an isolated database over the same
// data.
func TestFoldEquivalenceTPCH(t *testing.T) {
	const sf = 0.005
	plain := openTPCH(t, sf)
	folded := openFoldTPCH(t, sf)
	ctx := context.Background()
	for id := 1; id <= 22; id++ {
		qp, err := plain.PrepareTPCH(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := qp.Run(ctx)
		if err != nil {
			t.Fatalf("Q%d isolated: %v", id, err)
		}
		qf, err := folded.PrepareTPCH(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := qf.Run(ctx)
		if err != nil {
			t.Fatalf("Q%d folded: %v", id, err)
		}
		if got.SortedKey() != want.SortedKey() {
			t.Fatalf("Q%d folded differs from isolated run", id)
		}
	}
	snap := folded.Metrics().Snapshot()
	// The queries above run one at a time, so every hub read takes the
	// single-rider fast path: direct base reads, no window maintenance.
	if snap.Counters[obs.MetricFoldDirectReads] == 0 {
		t.Error("no hub reads: scans did not ride shared hubs")
	}
	if snap.Gauges[obs.MetricFoldHubs] == 0 {
		t.Error("no hubs registered")
	}
}

// TestFoldSuspendOneRider: two queries share the lineitem hub; one is
// suspended mid-run. The survivor must complete unaffected, and the
// detached session must resume byte-identical BOTH ways — rejoining the
// hubs on the fold database, and privatizing on a database with folding
// off. Run under -race this also hammers the hub from the suspension path.
func TestFoldSuspendOneRider(t *testing.T) {
	const sf = 0.02
	db := openFoldTPCH(t, sf)
	ctx := context.Background()

	q1, err := db.PrepareTPCH(1)
	if err != nil {
		t.Fatal(err)
	}
	q6, err := db.PrepareTPCH(6)
	if err != nil {
		t.Fatal(err)
	}
	want1, err := q1.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want6, err := q6.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Both executions ride the lineitem hub concurrently.
	e1, err := q1.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	e6, err := q6.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Suspend(PipelineLevel); err != nil {
		t.Fatal(err)
	}

	// The survivor never sees the detach: the hub keeps streaming.
	if err := e6.Wait(); err != nil {
		t.Fatalf("survivor: %v", err)
	}
	res6, err := e6.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res6.SortedKey() != want6.SortedKey() {
		t.Fatal("survivor result changed after a rider detached")
	}
	// The two executions overlapped, so the lineitem hub actually ran its
	// shared window for at least part of the survivor's scan.
	if db.Metrics().Snapshot().Counters[obs.MetricFoldFills] == 0 {
		t.Error("no shared-window fills during the concurrent phase")
	}

	werr := e1.Wait()
	if werr == nil {
		t.Skip("query finished before the suspension landed")
	}
	if !errors.Is(werr, ErrSuspended) {
		t.Fatalf("Wait = %v", werr)
	}
	path := filepath.Join(db.CheckpointDir(), "fold-rider.rvck")
	if _, err := e1.Checkpoint(path); err != nil {
		t.Fatal(err)
	}

	// Resume path A — rejoin: same fold database, the restored pipelines
	// ride the hubs again (reads below the window privatize until the
	// rider converges on the stream head).
	if got := finishFrom(t, q1, filePoint(path)); got.SortedKey() != want1.SortedKey() {
		t.Fatal("rejoin resume differs from clean run")
	}

	// Resume path B — privatize: a database with folding off restores the
	// same checkpoint onto plain private scans.
	iso := openTPCH(t, sf)
	q1iso, err := iso.PrepareTPCH(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := finishFrom(t, q1iso, filePoint(path)); got.SortedKey() != want1.SortedKey() {
		t.Fatal("privatize resume differs from clean run")
	}
}
