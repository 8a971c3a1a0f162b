package riveter

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/vector"
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

// overlapGate makes two executions overlap on their scans by construction.
// It wraps the database's ScanSharer: the first rider it hands out closes
// reached on its first read and then blocks every read until the second
// rider has completed one. The first execution is therefore live, stopped
// before its first morsel, for the whole of the second one's first read.
type overlapGate struct {
	engine.ScanSharer
	riders             atomic.Int32
	reached, release   chan struct{}
	reachOnce, relOnce sync.Once
}

func newOverlapGate(s engine.ScanSharer) *overlapGate {
	return &overlapGate{ScanSharer: s, reached: make(chan struct{}), release: make(chan struct{})}
}

// Share implements engine.ScanSharer.
func (g *overlapGate) Share(table string, proj []int, src engine.Source) engine.Source {
	return &gatedRider{Source: g.ScanSharer.Share(table, proj, src), g: g, first: g.riders.Add(1) == 1}
}

type gatedRider struct {
	engine.Source
	g     *overlapGate
	first bool
}

func (r *gatedRider) ReadMorsel(idx int64, dst *vector.Chunk) (int, error) {
	if r.first {
		r.g.reachOnce.Do(func() { close(r.g.reached) })
		<-r.g.release
		return r.Source.ReadMorsel(idx, dst)
	}
	n, err := r.Source.ReadMorsel(idx, dst)
	r.g.relOnce.Do(func() { close(r.g.release) })
	return n, err
}

// TestFoldSuspendOneRider: two queries share the fold hubs; one is
// suspended mid-run. The survivor must complete unaffected, and the
// detached session must resume byte-identical BOTH ways — rejoining the
// hubs on the fold database, and privatizing on a database with folding
// off. Run under -race this also hammers the hub from the suspension path.
//
// The overlap is arranged, not timed: an overlapGate holds Q1 before its
// first morsel until Q6 has read one, so Q6 reads while two executions are
// live, and Q1's suspension is requested before its first breaker.
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

	gate := newOverlapGate(db.compile.ScanShare)
	db.compile.ScanShare = gate
	e1, err := q1.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.reached // Q1 is live and holds its first morsel
	if err := e1.Suspend(PipelineLevel); err != nil {
		t.Fatal(err)
	}
	e6, err := q6.Start(ctx)
	if err != nil {
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
	// Q6 read with two executions live, so a hub ran its shared window.
	if db.Metrics().Snapshot().Counters[obs.MetricFoldFills] == 0 {
		t.Error("no shared-window fills during the concurrent phase")
	}

	if werr := e1.Wait(); !errors.Is(werr, ErrSuspended) {
		t.Fatalf("Wait = %v, want the requested suspension", werr)
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
