package server

import (
	"context"
	"slices"
	"testing"

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

// suspendIntoStore submits TPCH 21 to a one-slot server over db — opened
// on stall — and shuts the server down while the query is mid-run, so the
// session suspends into the shared store; returns the session id.
func suspendIntoStore(t *testing.T, db *riveter.DB, stall *stallFS, instance string) string {
	t.Helper()
	s, err := New(Config{DB: db, Slots: 1, InstanceID: instance, PreemptLevel: riveter.LineageLevel})
	if err != nil {
		t.Fatal(err)
	}
	long := stalledVictim(t, s, stall, riveter.PipelineLevel)
	if err := shutdownWhile(t, s, stall, false); err != nil {
		t.Fatal(err)
	}
	in, _ := s.Info(long.ID())
	if in.State != StateSuspended || in.StoreKey == "" {
		t.Fatalf("after shutdown: state=%s storeKey=%q checkpoint=%q", in.State, in.StoreKey, in.Checkpoint)
	}
	if in.Checkpoint != "" {
		t.Errorf("store mode wrote a local file checkpoint: %q", in.Checkpoint)
	}
	return long.ID()
}

// TestStoreModePreemption: with a store-backed DB, a preempted victim held
// in memory when the instance drains is persisted to the blob store (the
// session resumes from its store key on restart), results stay correct,
// and a consumed checkpoint is deleted from the store.
func TestStoreModePreemption(t *testing.T) {
	storeDir := t.TempDir()
	stall := newStallFS(false)
	db := openTPCHStore(t, 0.02, storeDir, riveter.WithFS(stall))
	want := runTPCH(t, db, 21)

	s, err := New(Config{DB: db, Slots: 1, Policy: SuspensionAware{}, InstanceID: "inst-a", PreemptLevel: riveter.LineageLevel})
	if err != nil {
		t.Fatal(err)
	}
	long, _, _ := heldVictim(t, s, stall, riveter.PipelineLevel)
	if err := shutdownWhile(t, s, stall, true); err != nil {
		t.Fatal(err)
	}
	// The drain persisted the held victim through the store...
	if in, _ := s.Info(long.ID()); in.StoreKey == "" || in.Checkpoint != "" {
		t.Fatalf("held victim after drain: %+v, want a store key", in.resumeWire)
	}
	if db.Metrics().Snapshot().Counters[obs.MetricBlobPut] == 0 {
		t.Error("no chunks were uploaded; the drain bypassed the store")
	}
	s2 := newServer(t, db, Config{Slots: 1, Policy: SuspensionAware{}, InstanceID: "inst-a"})
	res, err := s2.Wait(context.Background(), long.ID())
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != want.SortedKey() {
		t.Error("preempted, drained and resumed result differs from clean run")
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
	stall := newStallFS(false)
	dbA := openTPCHStore(t, 0.02, storeDir, riveter.WithFS(stall))
	want := runTPCH(t, dbA, 21)
	sid := suspendIntoStore(t, dbA, stall, "inst-a")

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
	stall := newStallFS(false)
	dbA := openTPCHStore(t, 0.02, storeDir, riveter.WithFS(stall))
	sid := suspendIntoStore(t, dbA, stall, "inst-a")

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
	if keys, err := stA.ListCheckpoints(); err != nil || !slices.Contains(keys, key) {
		t.Errorf("claimed checkpoint gone: keys=%v err=%v", keys, err)
	}
}

// TestStoreModeOwnRestart: an instance restarting under its own id
// reclaims its own sessions (no migration counted) — the store-mode
// equivalent of TestShutdownResume.
func TestStoreModeOwnRestart(t *testing.T) {
	storeDir := t.TempDir()
	stall := newStallFS(false)
	db := openTPCHStore(t, 0.02, storeDir, riveter.WithFS(stall))
	want := runTPCH(t, db, 21)
	sid := suspendIntoStore(t, db, stall, "inst-a")

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
