package server

import (
	"context"
	"testing"
	"time"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/obs"
)

// openTPCHStore opens a TPC-H database whose checkpoints target a blob
// store at dir. Instances sharing dir share a durability tier. opts are
// added to the database's options.
func openTPCHStore(t testing.TB, sf float64, dir string, opts ...riveter.Option) *riveter.DB {
	t.Helper()
	db := riveter.Open(append([]riveter.Option{
		riveter.WithWorkers(2),
		riveter.WithCheckpointDir(t.TempDir()),
		riveter.WithBlobStore(riveter.StoreConfig{Dir: dir}),
	}, opts...)...)
	if _, err := db.BlobStore(); err != nil {
		t.Fatal(err)
	}
	if err := db.GenerateTPCH(sf); err != nil {
		t.Fatal(err)
	}
	return db
}

// suspendIntoStore submits TPCH 21 to a one-slot server and shuts the
// server down so the session suspends into the shared store, returning
// the session id (skipping when the query won the race and completed).
func suspendIntoStore(t *testing.T, db *riveter.DB, instance string) string {
	t.Helper()
	s, err := New(Config{DB: db, Slots: 1, InstanceID: instance})
	if err != nil {
		t.Fatal(err)
	}
	long, err := s.Submit(Request{TPCH: 21, Priority: Batch})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	in, _ := s.Info(long.ID())
	if in.State == StateDone {
		t.Skip("timing: query completed before shutdown suspended it")
	}
	if in.State != StateSuspended || in.StoreKey == "" {
		t.Fatalf("after shutdown: state=%s storeKey=%q checkpoint=%q", in.State, in.StoreKey, in.Checkpoint)
	}
	if in.Checkpoint != "" {
		t.Errorf("store mode wrote a local file checkpoint: %q", in.Checkpoint)
	}
	return long.ID()
}

// TestStoreModePreemption: with a store-backed DB, preemption checkpoints
// go to the blob store (the session resumes from its store key), results
// stay correct, and a consumed checkpoint is deleted from the store.
func TestStoreModePreemption(t *testing.T) {
	storeDir := t.TempDir()
	db := openTPCHStore(t, 0.02, storeDir)
	q21, err := db.PrepareTPCH(21)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q21.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	s := newServer(t, db, Config{Slots: 1, Policy: SuspensionAware{}, InstanceID: "inst-a"})
	long, err := s.Submit(Request{TPCH: 21, Priority: Batch})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	short, err := s.Submit(Request{SQL: "SELECT count(*) AS n FROM orders", Priority: Interactive})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Wait(ctx, short.ID()); err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(ctx, long.ID())
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != want.SortedKey() {
		t.Error("preempted+resumed result differs from clean run")
	}
	in, _ := s.Info(long.ID())
	if in.Preemptions == 0 {
		t.Skip("timing: long query finished before the preemption landed")
	}
	// The preemption round trip went through the store...
	snap := db.Metrics().Snapshot()
	if snap.Counters[obs.MetricBlobPut] == 0 {
		t.Error("no chunks were uploaded; preemption bypassed the store")
	}
	// ...and the consumed checkpoint was deleted on completion.
	st, err := db.BlobStore()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := st.ListCheckpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Errorf("store still holds checkpoints after completion: %v", keys)
	}
}

// TestServerCrossInstanceMigration is the serving-layer acceptance test:
// instance A suspends a query into the shared store and dies; instance B
// — a different server over a different DB handle, sharing only the
// store directory — adopts the session via its claim token, resumes it,
// and completes it with results identical to an uninterrupted run.
func TestServerCrossInstanceMigration(t *testing.T) {
	storeDir := t.TempDir()
	dbA := openTPCHStore(t, 0.02, storeDir)
	want, err := func() (*riveter.Result, error) {
		q, err := dbA.PrepareTPCH(21)
		if err != nil {
			return nil, err
		}
		return q.Run(context.Background())
	}()
	if err != nil {
		t.Fatal(err)
	}
	sid := suspendIntoStore(t, dbA, "inst-a")

	// Instance B: fresh DB over the same (deterministically generated)
	// dataset and the same store.
	dbB := openTPCHStore(t, 0.02, storeDir)
	sB := newServer(t, dbB, Config{Slots: 1, InstanceID: "inst-b"})
	res, err := sB.Wait(context.Background(), sid)
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != want.SortedKey() {
		t.Error("migrated result differs from uninterrupted run")
	}
	in, ok := sB.Info(sid)
	if !ok || in.State != StateDone {
		t.Fatalf("migrated session on B: ok=%v state=%s", ok, in.State)
	}
	if got := dbB.Metrics().Snapshot().Counters[obs.MetricServerMigrated]; got < 1 {
		t.Errorf("server.migrated = %d, want >= 1", got)
	}

	// A's state document was consumed and the claim released with the
	// checkpoint, leaving the store clean for GC.
	st, err := dbB.BlobStore()
	if err != nil {
		t.Fatal(err)
	}
	docs, err := st.ListDocs()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if d == stateDocPrefix+"inst-a" {
			t.Error("instance A's state document was not consumed")
		}
	}
	keys, err := st.ListCheckpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Errorf("store still holds checkpoints after migration completed: %v", keys)
	}
}

// TestServerMigrationClaimExclusive: a session already claimed by a peer
// instance is not adopted — the claim token is the mutual-exclusion
// point that prevents two instances from double-resuming one query.
func TestServerMigrationClaimExclusive(t *testing.T) {
	storeDir := t.TempDir()
	dbA := openTPCHStore(t, 0.02, storeDir)
	sid := suspendIntoStore(t, dbA, "inst-a")

	// A third instance claims the session before B starts.
	stA, err := dbA.BlobStore()
	if err != nil {
		t.Fatal(err)
	}
	key := sessionStoreKey("inst-a", sid)
	if ok, err := stA.Claim(key, "inst-c", stateDocPrefix+"inst-a"); err != nil || !ok {
		t.Fatalf("pre-claim: ok=%v err=%v", ok, err)
	}

	dbB := openTPCHStore(t, 0.02, storeDir)
	sB := newServer(t, dbB, Config{Slots: 1, InstanceID: "inst-b"})
	if _, ok := sB.Info(sid); ok {
		t.Fatal("instance B adopted a session claimed by a peer")
	}
	if got := dbB.Metrics().Snapshot().Counters[obs.MetricServerMigrated]; got != 0 {
		t.Errorf("server.migrated = %d, want 0", got)
	}
	// The claimed session's checkpoint must survive B's startup GC — the
	// claim holder may still resume it.
	if has, err := stA.HasCheckpoint(key); err != nil || !has {
		t.Errorf("claimed checkpoint gone: has=%v err=%v", has, err)
	}
}

// TestStoreModeOwnRestart: an instance restarting under its own id
// reclaims its own sessions (no migration counted) — the store-mode
// equivalent of TestShutdownResume.
func TestStoreModeOwnRestart(t *testing.T) {
	storeDir := t.TempDir()
	db := openTPCHStore(t, 0.02, storeDir)
	q21, err := db.PrepareTPCH(21)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q21.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sid := suspendIntoStore(t, db, "inst-a")

	s2 := newServer(t, db, Config{Slots: 1, InstanceID: "inst-a"})
	res, err := s2.Wait(context.Background(), sid)
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != want.SortedKey() {
		t.Error("restarted result differs from uninterrupted run")
	}
	if got := db.Metrics().Snapshot().Counters[obs.MetricServerMigrated]; got != 0 {
		t.Errorf("own restart counted as migration: server.migrated = %d", got)
	}
}
