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

	// A query lowers at Prepare: the gated pair is prepared behind the
	// gate, Q1's scan first.
	gate := newOverlapGate(db.compile.ScanShare)
	db.compile.ScanShare = gate
	g1, err := db.PrepareTPCH(1)
	if err != nil {
		t.Fatal(err)
	}
	g6, err := db.PrepareTPCH(6)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := g1.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.reached // Q1 is live and holds its first morsel
	if err := e1.Suspend(PipelineLevel); err != nil {
		t.Fatal(err)
	}
	e6, err := g6.Start(ctx)
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

// TestFoldKeepsProcessedBytes: every source counts a morsel's bytes
// (Source.MorselBytes) without reading it twice, a fold rider from its
// hub's table. Each TPC-H query at SF 0.01 on one worker processes the
// same bytes with folding on and off, and the bytes recorded here, which
// the executor counted before the sources did: from cached column sizes
// for a table scan and from the morsel's chunk for any other source.
func TestFoldKeepsProcessedBytes(t *testing.T) {
	recorded := [22]int64{4440414, 615762, 2453000, 2057327, 2306873, 1919848, 2667442, 2876099,
		3432586, 3302437, 455946, 3622350, 1596575, 2009144, 1934443, 333689, 2511018, 2702988,
		4944178, 2238050, 5221297, 251512}
	for _, fold := range []bool{false, true} {
		opts := []Option{WithWorkers(1), WithCheckpointDir(t.TempDir())}
		if fold {
			opts = append(opts, WithFold())
		}
		db := Open(opts...)
		if err := db.GenerateTPCH(0.01); err != nil {
			t.Fatal(err)
		}
		for id := 1; id <= 22; id++ {
			q, err := db.PrepareTPCH(id)
			if err != nil {
				t.Fatal(err)
			}
			e, err := q.Start(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Wait(); err != nil {
				t.Fatalf("Q%d: %v", id, err)
			}
			if got := e.ex.Accountant().ProcessedBytes(); got != recorded[id-1] {
				t.Errorf("Q%d with folding %v: processed %d bytes, recorded %d", id, fold, got, recorded[id-1])
			}
		}
	}
}

// TestQueryRunsOnePlan: a Query lowers its plan once, at Prepare, and Run,
// Start and StartFrom all run it. The executors of Start and StartFrom run
// the query's very plan, and none of the three lowers it again: with
// folding on, a lowering attaches each scan to its hub, and fold.attached
// does not move.
func TestQueryRunsOnePlan(t *testing.T) {
	db := openFoldTPCH(t, 0.01)
	attached := func() int64 { return db.Metrics().Snapshot().Counters[obs.MetricFoldAttached] }
	q, err := db.PrepareTPCH(3)
	if err != nil {
		t.Fatal(err)
	}
	lowered := attached()
	if lowered == 0 {
		t.Fatal("Prepare attached no scan to a hub")
	}
	ctx := context.Background()
	want, err := q.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	e, err := q.start(nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SuspendWhen(ProcessLevel, 1<<20)
	if err := e.launch(ctx).Wait(); !errors.Is(err, ErrSuspended) {
		t.Fatalf("Start: Wait = %v, want a suspension", err)
	}
	path := db.NewCheckpointPath("oneplan")
	if _, err := e.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	resumed, err := q.StartFromCheckpoint(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got.SortedKey() != want.SortedKey() {
		t.Error("the resumed run's rows differ from Run's")
	}
	if e.ex.Plan() != q.pp || resumed.ex.Plan() != q.pp {
		t.Error("Start or StartFrom runs a plan other than the query's")
	}
	if n := attached(); n != lowered {
		t.Errorf("fold.attached went from %d to %d: a run lowered the plan again", lowered, n)
	}
}
