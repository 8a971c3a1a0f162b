package engine

import (
	"context"
	"errors"
	"testing"

	"github.com/riveterdb/riveter/internal/obs"
)

// TestExecutorMetrics verifies that an instrumented executor reports
// progress counters and per-pipeline durations into its registry.
func TestExecutorMetrics(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	reg := obs.NewRegistry()
	tr := obs.NewTrace("complex")

	pp := mustCompile(t, node, cat)
	ex := NewExecutor(pp, Options{Workers: 2, Obs: obs.Context{Metrics: reg, Trace: tr}})
	if _, err := ex.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	numPipes := int64(len(pp.Pipelines))
	if got := reg.Counter(obs.MetricPipelinesDone).Value(); got != numPipes {
		t.Fatalf("pipelines_done = %d, want %d", got, numPipes)
	}
	if got := reg.Counter(obs.MetricMorsels).Value(); got <= 0 {
		t.Fatalf("morsel counter = %d, want > 0", got)
	}
	if got := reg.Counter(obs.MetricProcessedBytes).Value(); got != ex.Accountant().ProcessedBytes() {
		t.Fatalf("processed_bytes counter = %d, accountant says %d", got, ex.Accountant().ProcessedBytes())
	}
	observed := int64(-1)
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == obs.MetricPipelineDuration {
			observed = h.Count
		}
	}
	if observed != numPipes {
		t.Fatalf("pipeline duration observations = %d, want %d", observed, numPipes)
	}

	var starts, finishes int64
	for _, e := range tr.Events() {
		switch e.Name {
		case obs.EvPipelineStart:
			starts++
		case obs.EvPipelineFinish:
			finishes++
			if e.Attr("duration") == nil {
				t.Fatalf("pipeline.finish missing duration attr: %+v", e)
			}
		}
	}
	if starts != numPipes || finishes != numPipes {
		t.Fatalf("trace has %d starts / %d finishes, want %d each", starts, finishes, numPipes)
	}
}

// TestExecutorSuspendTraceEvents verifies the request→acknowledge pair for
// a process-level suspension and the suspends counter.
func TestExecutorSuspendTraceEvents(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	reg := obs.NewRegistry()
	tr := obs.NewTrace("complex")

	pp := mustCompile(t, node, cat)
	ex := NewExecutor(pp, Options{
		Workers: 2,
		Obs:     obs.Context{Metrics: reg, Trace: tr},
	})
	// Fire deterministically at the first processed byte.
	ex.SuspendWhen(KindProcess, 1)
	_, err := ex.Run(context.Background())
	if !errors.Is(err, ErrSuspended) {
		t.Fatalf("Run = %v, want ErrSuspended", err)
	}

	req, ok := tr.Find(obs.EvSuspendRequested)
	if !ok {
		t.Fatal("missing suspend.requested event")
	}
	ack, ok := tr.Find(obs.EvSuspendAcked)
	if !ok {
		t.Fatal("missing suspend.acknowledged event")
	}
	if req.Seq >= ack.Seq {
		t.Fatalf("request (seq %d) must precede acknowledgement (seq %d)", req.Seq, ack.Seq)
	}
	if ack.Attr("kind") != "process" {
		t.Fatalf("ack kind = %v", ack.Attr("kind"))
	}
	if got := reg.Counter(obs.Kinded(obs.MetricSuspends, "process")).Value(); got != 1 {
		t.Fatalf("suspend counter = %d, want 1", got)
	}
}

// TestExecutorMetricsDisabled verifies the zero Obs context stays inert.
func TestExecutorMetricsDisabled(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	pp := mustCompile(t, node, cat)
	ex := NewExecutor(pp, Options{Workers: 2})
	if _, err := ex.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if o := ex.Obs(); o.Metrics != nil || o.Trace != nil {
		t.Fatal("executor without Obs options must report a disabled context")
	}
}
