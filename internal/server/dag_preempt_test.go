package server

import (
	"context"
	"testing"
	"time"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/checkpoint"
	"github.com/riveterdb/riveter/internal/engine"
)

// TestPreemptionQuiescesDAG: a process-level preemption landing while the
// victim's DAG scheduler has several pipelines in flight must quiesce the
// whole DAG, persist a v2 checkpoint carrying the in-flight set, and resume
// to an identical result. Q21 is the multi-join victim — its plan has
// several independent build pipelines that run concurrently.
func TestPreemptionQuiescesDAG(t *testing.T) {
	db := openTPCH(t, 0.02)
	q21, err := db.PrepareTPCH(21)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q21.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	s := newServer(t, db, Config{
		Slots:        1,
		Policy:       SuspensionAware{},
		PreemptLevel: riveter.ProcessLevel,
	})
	long, err := s.Submit(Request{TPCH: 21, Priority: Batch})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	short, err := s.Submit(Request{SQL: "SELECT count(*) AS n FROM orders", Priority: Interactive})
	if err != nil {
		t.Fatal(err)
	}
	// The checkpoint is removed when the session completes, so inspect the
	// manifest while the victim sits suspended (the short holds the slot).
	var m checkpoint.Manifest
	sawCheckpoint := false
	for i := 0; i < 2000 && !sawCheckpoint; i++ {
		in, ok := s.Info(long.ID())
		if !ok || in.State == StateDone {
			break
		}
		if in.State == StateSuspended && in.Checkpoint != "" {
			var err error
			if m, err = checkpoint.VerifyFS(db.FS(), in.Checkpoint); err != nil {
				t.Fatalf("read preemption checkpoint manifest: %v", err)
			}
			sawCheckpoint = true
			break
		}
		time.Sleep(time.Millisecond)
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
		t.Error("DAG-preempted result differs from clean run")
	}
	in, _ := s.Info(long.ID())
	if in.Preemptions == 0 {
		t.Skip("timing: long query finished before the preemption landed")
	}
	if !sawCheckpoint {
		t.Skip("timing: suspended checkpoint was not observable before resume")
	}
	if m.StateVersion != engine.StateFormatVersion {
		t.Errorf("checkpoint state version = %d, want %d", m.StateVersion, engine.StateFormatVersion)
	}
	// A process-level capture records the quiesced in-flight set in the
	// manifest; a barrier that landed between pipelines leaves it empty.
	for i := 1; i < len(m.InFlightPipelines); i++ {
		if m.InFlightPipelines[i] <= m.InFlightPipelines[i-1] {
			t.Errorf("manifest in-flight set not ascending: %v", m.InFlightPipelines)
		}
	}
	t.Logf("preemptions=%d kind=%s in-flight=%v", in.Preemptions, m.Kind, m.InFlightPipelines)
}
