package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/faultfs"
)

// waitCond polls f until it reports true or the deadline passes.
func waitCond(t *testing.T, d time.Duration, what string, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !f() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHealthSnapshot: Health reports identity, readiness, and live/parked
// counts, and flips to draining on Drain while staying readable.
func TestHealthSnapshot(t *testing.T) {
	db := openTPCH(t, 0.005)
	s := newServer(t, db, Config{Slots: 1, InstanceID: "health-a"})
	h := s.Health()
	if h.Instance != "health-a" || h.Status != "accepting" || h.Sessions != 0 {
		t.Fatalf("fresh health = %+v", h)
	}
	if _, err := s.Submit(Request{TPCH: 6}); err != nil {
		t.Fatal(err)
	}
	h = s.Health()
	if h.Sessions != 1 {
		t.Fatalf("after submit: %+v", h)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	h = s.Health()
	if h.Status != "draining" {
		t.Fatalf("after drain: %+v", h)
	}
	if _, err := s.Submit(Request{TPCH: 6}); err != ErrClosed {
		t.Fatalf("submit after drain = %v, want ErrClosed", err)
	}
}

// TestKeyedSubmitIdempotent: resubmitting an existing session key returns
// the existing session — a proxy retry can never double-run a query.
func TestKeyedSubmitIdempotent(t *testing.T) {
	db := openTPCH(t, 0.005)
	s := newServer(t, db, Config{Slots: 1})
	a, err := s.Submit(Request{TPCH: 6, Key: "k1"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(Request{TPCH: 6, Key: "k1"})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != b.ID() {
		t.Fatalf("keyed resubmit made a new session: %s vs %s", a.ID(), b.ID())
	}
	if in, ok := s.InfoByKey("k1"); !ok || in.ID != a.ID() || in.Key != "k1" {
		t.Fatalf("InfoByKey = %+v, %v", in, ok)
	}
	if _, ok := s.InfoByKey("nope"); ok {
		t.Fatal("unknown key must not resolve")
	}
}

// TestIdleParkAndWake is the scale-to-zero round trip: a running session
// nobody touches parks (suspended to the store, slot freed, NOT
// re-queued) and the instance reaches zero live executions; the next
// client touch wakes it and the query completes correctly.
func TestIdleParkAndWake(t *testing.T) {
	storeDir := t.TempDir()
	db := openTPCHStore(t, 0.02, storeDir)
	want := runTPCH(t, db, 21)

	// The idle window must be much shorter than the query's runtime
	// (~200ms at this scale factor) or the query can legitimately finish
	// before it is ever idle long enough to park.
	s := newServer(t, db, Config{Slots: 1, InstanceID: "idle-a", IdleSuspend: 5 * time.Millisecond})
	sess, err := s.Submit(Request{TPCH: 21, Key: "park-me"})
	if err != nil {
		t.Fatal(err)
	}

	// No Wait, no Info: the session is unwatched and must park. Health
	// polling deliberately does not count as a touch.
	waitCond(t, 30*time.Second, "session to park", func() bool {
		h := s.Health()
		return h.Running == 0 && h.Queued == 0 && h.Suspended == 0 && h.Parked == 1
	})
	snap := db.Metrics().Snapshot()
	if snap.Counters["server.idle_suspended"] < 1 {
		t.Fatalf("idle_suspended = %d, want >= 1", snap.Counters["server.idle_suspended"])
	}
	if snap.Counters["blobstore.put"] == 0 {
		t.Error("parking wrote nothing to the store")
	}

	// Info is a touch: the session wakes into the queue and finishes.
	in, ok := s.Info(sess.ID())
	if !ok {
		t.Fatal("parked session vanished")
	}
	if in.State != StateSuspended && in.State != StateQueued && in.State != StateRunning {
		t.Fatalf("woken state = %s", in.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := s.Wait(ctx, sess.ID())
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != want.SortedKey() {
		t.Fatal("scale-to-zero round trip corrupted the result")
	}
	if got := db.Metrics().Snapshot().Counters["server.idle_woken"]; got < 1 {
		t.Fatalf("idle_woken = %d, want >= 1", got)
	}
}

// TestWaiterBlocksIdlePark: a session someone is blocked on never counts
// as idle, no matter how long it runs.
func TestWaiterBlocksIdlePark(t *testing.T) {
	db := openTPCHStore(t, 0.02, t.TempDir())
	s := newServer(t, db, Config{Slots: 1, InstanceID: "idle-b", IdleSuspend: 30 * time.Millisecond})
	sess, err := s.Submit(Request{TPCH: 21})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, sess.ID()); err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics().Snapshot().Counters["server.idle_suspended"]; got != 0 {
		t.Fatalf("waited-on session was idle-parked %d times", got)
	}
}

// runTPCH runs a TPC-H query directly for a baseline result.
func runTPCH(t *testing.T, db *riveter.DB, n int) *riveter.Result {
	t.Helper()
	q, err := db.PrepareTPCH(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAdoptFromStoreRuntime: a live server adopts a dead peer's suspended
// session on demand (the control plane's failover primitive), preserving
// the client session key across the migration, and completes it
// correctly.
func TestAdoptFromStoreRuntime(t *testing.T) {
	storeDir := t.TempDir()

	// Survivor first: its startup adoption pass must find an empty store.
	dbB := openTPCHStore(t, 0.02, storeDir)
	want := runTPCH(t, dbB, 21)
	b := newServer(t, dbB, Config{Slots: 1, InstanceID: "adopt-b"})

	// Victim: submit keyed, shut down so the session suspends into the
	// shared store with its state document. The victim logs lineage onto a
	// filesystem that stalls the query's first breaker seal, so the query
	// is mid-execution when the shutdown asks it to suspend.
	stall := newStallFS()
	dbA := openTPCHStore(t, 0.02, storeDir, riveter.WithFS(stall))
	a, err := New(Config{DB: dbA, Slots: 1, InstanceID: "adopt-a", PreemptLevel: riveter.LineageLevel})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{TPCH: 21, Key: "k-adopt", Priority: Batch}
	if _, err := a.Submit(req); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stall.stalled:
	case <-time.After(30 * time.Second):
		t.Fatal("query never reached its first breaker on the victim")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- a.Shutdown(ctx) }()
	// Shutdown refuses submissions in the critical section that asks the
	// query to suspend; until then a keyed re-submit dedups onto the
	// existing session. Once refused, the stalled seal can give way.
	for {
		if _, err := a.Submit(req); errors.Is(err, ErrClosed) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stall.release)
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
	if in, _ := a.InfoByKey("k-adopt"); in.State != StateSuspended || in.StoreKey == "" {
		t.Fatalf("victim after shutdown: state %s store key %q, want suspended to the store", in.State, in.StoreKey)
	}

	n, err := b.AdoptFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("adopted %d sessions, want 1", n)
	}
	in, ok := b.InfoByKey("k-adopt")
	if !ok {
		t.Fatal("adopted session lost its key")
	}
	res, err := b.Wait(ctx, in.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != want.SortedKey() {
		t.Fatal("adopted session returned a wrong result")
	}
	if got := dbB.Metrics().Snapshot().Counters["server.migrated"]; got != 1 {
		t.Fatalf("migrated = %d, want 1", got)
	}
	// Idempotent: nothing left to adopt, and the key cannot be doubled.
	if n, err := b.AdoptFromStore(); err != nil || n != 0 {
		t.Fatalf("second adopt = %d, %v", n, err)
	}
}

// stallFS passes everything through to the real filesystem except the
// second fsync of each lineage log (.rvlg): the seal of the query's first
// pipeline breaker. That fsync blocks until release is closed and then
// fails, so a query started with a lineage log on this filesystem is
// mid-execution until the test lets go — by construction, not by timing.
type stallFS struct {
	faultfs.FS
	stalled chan struct{} // closed when the first seal blocks
	release chan struct{}
	once    sync.Once
}

func newStallFS() *stallFS {
	return &stallFS{FS: faultfs.OS, stalled: make(chan struct{}), release: make(chan struct{})}
}

func (s *stallFS) Create(path string) (faultfs.File, error) {
	f, err := s.FS.Create(path)
	if err != nil || !strings.HasSuffix(path, ".rvlg") {
		return f, err
	}
	return &stallFile{File: f, fs: s}, nil
}

// stallFile counts a lineage log's fsyncs; the log calls Sync under its own
// mutex, so the count needs no lock of its own.
type stallFile struct {
	faultfs.File
	fs    *stallFS
	syncs int
}

func (f *stallFile) Sync() error {
	if f.syncs++; f.syncs < 2 {
		return f.File.Sync()
	}
	f.fs.once.Do(func() { close(f.fs.stalled) })
	<-f.fs.release
	return errors.New("stallFS: seal released")
}
