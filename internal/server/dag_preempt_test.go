package server

import (
	"testing"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/checkpoint"
	"github.com/riveterdb/riveter/internal/engine"
)

// TestPreemptionQuiescesDAG: a preemption landing while the victim's DAG
// scheduler has several pipelines in flight must quiesce the whole DAG;
// the held capture, persisted at shutdown, is a process-level
// checkpoint (state format v2 or later) carrying the in-flight set, and resumes to an identical
// result. Q21 is the multi-join victim — its plan has several independent
// build pipelines that run concurrently.
func TestPreemptionQuiescesDAG(t *testing.T) {
	stall := newStallFS(false)
	db := openStallTPCH(t, stall)
	want := runTPCH(t, db, 21)

	s, err := New(Config{DB: db, Slots: 1, Policy: SuspensionAware{}, PreemptLevel: riveter.LineageLevel})
	if err != nil {
		t.Fatal(err)
	}
	long, _, _ := heldVictim(t, s, stall, riveter.ProcessLevel)
	if err := shutdownWhile(t, s, stall, false); err != nil {
		t.Fatal(err)
	}
	in, _ := s.Info(long.ID())
	if in.Preemptions == 0 {
		t.Error("the held victim counts no preemption")
	}
	m, err := checkpoint.VerifyFS(db.FS(), in.Checkpoint)
	if err != nil {
		t.Fatalf("read the held victim's checkpoint manifest: %v", err)
	}
	if m.Kind != "process" {
		t.Errorf("checkpoint kind = %q, want process", m.Kind)
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
	if res := restartAndWait(t, db, long.ID()); res.SortedKey() != want.SortedKey() {
		t.Error("DAG-preempted result differs from clean run")
	}
}
