package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/riveterdb/riveter/internal/blobstore"
	"github.com/riveterdb/riveter/internal/checkpoint"
)

// compatStore builds a blob store over a temp directory with chunk bounds
// small enough that engine-sized fixtures split into several chunks.
func compatStore(t *testing.T) *blobstore.Store {
	t.Helper()
	local, err := blobstore.NewLocal(nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := blobstore.New(blobstore.Config{
		Backend:  local,
		Chunking: blobstore.ChunkParams{Min: 64, Avg: 256, Max: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// storeCompatManifest describes a hand-encoded fixture's state.
func storeCompatManifest(kind string, ex *Executor, stateVersion int) checkpoint.Manifest {
	return checkpoint.Manifest{
		Kind:            kind,
		Query:           "compat",
		PlanFingerprint: fmt.Sprintf("%016x", ex.pp.Fingerprint),
		Workers:         ex.opts.Workers,
		StateVersion:    stateVersion,
	}
}

// restoreFromStore loads checkpoint key into a fresh executor over a
// recompiled plan and runs it to completion.
func restoreFromStore(t *testing.T, st *blobstore.Store, key string, ex2 *Executor) *ResultSet {
	t.Helper()
	if _, err := st.ReadCheckpoint(key, ex2.LoadState, nil); err != nil {
		t.Fatalf("ReadCheckpoint(%s): %v", key, err)
	}
	res, err := ex2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStoreRestoresV2Checkpoint: the current format (the in-flight-set
// layout of version 2, at version 5 now) written as raw bytes — the same
// path a foreign instance uses when it serialized state itself —
// round-trips through the store, including a process-level capture with
// in-flight pipeline state, armed at half the bytes an uninterrupted run
// processes.
func TestStoreRestoresV2Checkpoint(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	clean := NewExecutor(mustCompile(t, node, cat), Options{Workers: 2})
	res, err := clean.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref := res.SortedKey()

	pp := mustCompile(t, node, cat)
	ex := NewExecutor(pp, Options{Workers: 2})
	ex.SuspendWhen(KindProcess, clean.Accountant().ProcessedBytes()/2)
	if _, err := ex.Run(context.Background()); !errors.Is(err, ErrSuspended) {
		t.Fatal(err)
	}
	info := ex.Suspended()
	if info == nil || info.Kind != KindProcess {
		t.Fatalf("no process-level suspension landed: %+v", info)
	}
	v2 := saveState(t, ex)

	st := compatStore(t)
	m := storeCompatManifest("process", ex, StateFormatVersion)
	for _, ip := range info.InFlight {
		m.InFlightPipelines = append(m.InFlightPipelines, ip.Pipeline)
	}
	m.StateBytes = int64(len(v2))
	if _, err := st.WriteCheckpoint("compat-v2", &checkpoint.Image{Manifest: m, Payload: v2}, nil); err != nil {
		t.Fatal(err)
	}
	sm, err := st.ReadStoreManifest("compat-v2")
	if err != nil {
		t.Fatal(err)
	}
	if sm.StateVersion != StateFormatVersion {
		t.Errorf("manifest state version = %d, want %d", sm.StateVersion, StateFormatVersion)
	}

	// Process-level restores need the captured worker count.
	pp2 := mustCompile(t, node, cat)
	ex2 := NewExecutor(pp2, Options{Workers: 2})
	if got := restoreFromStore(t, st, "compat-v2", ex2).SortedKey(); got != ref {
		t.Error("result after v2 store restore differs")
	}
}
