package riveter

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unicode"

	"github.com/riveterdb/riveter/internal/costmodel"
	"github.com/riveterdb/riveter/internal/obs"
)

// TestTraceSuspendResumeRoundTrip verifies event ordering across a full
// suspend→checkpoint→resume round trip through the public API: the trace
// started by Query.Start continues through Execution.Checkpoint and a
// Query.StartFrom handed the suspended execution, so request, acknowledgement, persist, restore, and the
// resumed pipelines appear in causal order in one event stream.
func TestTraceSuspendResumeRoundTrip(t *testing.T) {
	db := Open(WithWorkers(2), WithCheckpointDir(t.TempDir()), WithTracing())
	if err := db.GenerateTPCH(0.02); err != nil {
		t.Fatal(err)
	}
	q, err := db.PrepareTPCH(3)
	if err != nil {
		t.Fatal(err)
	}

	exec := suspendArmed(t, q, PipelineLevel)
	path := filepath.Join(db.CheckpointDir(), "q3.rvck")
	info, err := exec.Checkpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := q.StartFrom(context.Background(), filePoint(path), exec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Result(); err != nil {
		t.Fatal(err)
	}

	tr := exec.Trace()
	if tr == nil {
		t.Fatal("WithTracing must attach a trace to the execution")
	}

	// The causal chain must appear in order.
	order := []string{
		obs.EvSuspendRequested,
		obs.EvSuspendAcked,
		obs.EvCheckpointSerialize,
		obs.EvCheckpointWrite,
		obs.EvCheckpointPersisted,
		obs.EvResumeRestore,
	}
	lastSeq := -1
	for _, name := range order {
		ev, ok := tr.Find(name)
		if !ok {
			t.Fatalf("trace missing %s event; trace has %d events", name, tr.Len())
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("%s (seq %d) out of order (previous seq %d)", name, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
	}

	// Checkpoint events carry the persisted sizes the report exposes.
	persisted, _ := tr.Find(obs.EvCheckpointPersisted)
	if got := persisted.Attr("total_bytes"); got != info.TotalBytes {
		t.Fatalf("checkpoint.persisted total_bytes = %v, checkpoint info says %d", got, info.TotalBytes)
	}
	if persisted.Attr("duration") == nil {
		t.Fatal("checkpoint.persisted missing duration (L_s)")
	}
	restore, _ := tr.Find(obs.EvResumeRestore)
	if restore.Attr("duration") == nil {
		t.Fatal("resume.restore missing duration (L_r)")
	}

	// Pipelines finished both before the suspension and after the resume.
	var finishes []obs.Event
	for _, e := range tr.Events() {
		if e.Name == obs.EvPipelineFinish {
			finishes = append(finishes, e)
		}
	}
	if len(finishes) == 0 {
		t.Fatal("trace has no pipeline.finish events")
	}
	var afterRestore bool
	for _, f := range finishes {
		if f.Attr("duration") == nil {
			t.Fatalf("pipeline.finish missing duration: %+v", f)
		}
		if f.Seq > restore.Seq {
			afterRestore = true
		}
	}
	if !afterRestore {
		t.Fatal("no pipeline finished after the restore: trace did not continue into the resumed executor")
	}

	// The shared DB registry saw the same lifecycle.
	snap := db.Metrics().Snapshot()
	if snap.Counters[obs.Kinded(obs.MetricSuspends, "pipeline")] == 0 {
		t.Fatal("metrics missing pipeline suspend count")
	}
	var sawSuspendLat, sawResumeLat, sawBytes bool
	for _, h := range snap.Histograms {
		switch h.Name {
		case obs.Kinded(obs.MetricSuspendLatency, "pipeline"):
			sawSuspendLat = h.Count > 0
		case obs.Kinded(obs.MetricResumeLatency, "pipeline"):
			sawResumeLat = h.Count > 0
		case obs.Kinded(obs.MetricCheckpointBytes, "pipeline"):
			sawBytes = h.Count > 0 && h.Max >= info.TotalBytes
		}
	}
	if !sawSuspendLat || !sawResumeLat || !sawBytes {
		t.Fatalf("metrics snapshot incomplete: suspend=%v resume=%v bytes=%v", sawSuspendLat, sawResumeLat, sawBytes)
	}
}

// TestTracingDisabledByDefault verifies executions carry no trace (and pay
// no tracing cost) unless the DB was opened WithTracing, while the metrics
// registry is always available.
func TestTracingDisabledByDefault(t *testing.T) {
	db := openTPCH(t, 0.005)
	q, err := db.PrepareTPCH(6)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := q.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.Wait(); err != nil {
		t.Fatal(err)
	}
	if exec.Trace() != nil {
		t.Fatal("tracing must be opt-in")
	}
	if db.Metrics() == nil {
		t.Fatal("metrics registry must always exist")
	}
	if got := db.Metrics().Counter(obs.MetricPipelinesDone).Value(); got == 0 {
		t.Fatal("metrics registry did not record the run")
	}
}

// TestAdaptiveTrace verifies an adaptive run's report carries a decision
// event with the cost-model inputs (the Algorithm 1 audit trail).
func TestAdaptiveTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive calibration is slow")
	}
	db := Open(WithWorkers(2), WithCheckpointDir(t.TempDir()), WithTracing())
	if err := db.GenerateTPCH(0.02); err != nil {
		t.Fatal(err)
	}
	q, err := db.PrepareTPCH(3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := q.NewAdaptive()
	if err != nil {
		t.Fatal(err)
	}
	// The alert fires at the start, so the quiesce lands at the first
	// morsel boundary, and no termination is drawn that could preempt it:
	// the decision runs whatever the timing.
	rep, err := a.RunAdaptive(Scenario{Probability: 1, WindowStartFrac: 0, WindowEndFrac: 0.8}, Event{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil {
		t.Fatal("adaptive report must carry a trace when the DB traces")
	}
	dec, ok := rep.Trace.Find(obs.EvDecision)
	if !ok {
		t.Fatal("trace missing strategy.decision event")
	}
	// One attribute per Algorithm 1 input: a field added to Input or Params
	// that decide does not write fails here.
	keys := []string{"strategy", "cost_redo", "cost_pipeline", "cost_process", "cost_lineage", "process_suspend_at"}
	for _, typ := range []reflect.Type{reflect.TypeOf(costmodel.Input{}), reflect.TypeOf(costmodel.Params{})} {
		for i := 0; i < typ.NumField(); i++ {
			keys = append(keys, snakeCase(typ.Field(i).Name))
		}
	}
	for _, key := range keys {
		if dec.Attr(key) == nil {
			t.Errorf("decision event missing %s attr: %+v", key, dec)
		}
	}
	if _, ok := rep.Trace.Find(obs.EvOutcome); !ok {
		t.Fatal("trace missing strategy.outcome event")
	}
}

// snakeCase renders a Go field name as a trace attribute key:
// AvgPipelineTime → avg_pipeline_time, IO → io.
func snakeCase(name string) string {
	var b strings.Builder
	for i, r := range name {
		if i > 0 && unicode.IsUpper(r) {
			prev, next := rune(name[i-1]), rune(0)
			if i+1 < len(name) {
				next = rune(name[i+1])
			}
			if unicode.IsLower(prev) || unicode.IsLower(next) {
				b.WriteByte('_')
			}
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}
