package strategy

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"github.com/riveterdb/riveter/internal/checkpoint"
	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/tpch"
	"github.com/riveterdb/riveter/internal/vector"
)

func setup(t *testing.T) *engine.PhysicalPlan {
	t.Helper()
	cat, err := tpch.Generate(tpch.Config{SF: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	q, err := tpch.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	node := q.Build(plan.NewBuilder(cat), 0.01)
	pp, err := engine.CompileWith(node, cat, engine.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

func TestKindNames(t *testing.T) {
	for k, want := range map[Kind]string{Redo: "redo", Pipeline: "pipeline", Process: "process"} {
		if got := k.String(); got != want {
			t.Errorf("kind %d renders %q, want %q", int(k), got, want)
		}
	}
}

func TestRequestRedoCancels(t *testing.T) {
	pp := setup(t)
	ex := engine.NewExecutor(pp, engine.Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ex.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
}

func TestPersistRequiresSuspension(t *testing.T) {
	pp := setup(t)
	ex := engine.NewExecutor(pp, engine.Options{Workers: 2})
	if _, err := ex.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := persistFile(ex, filepath.Join(t.TempDir(), "x.rvck")); err == nil {
		t.Fatal("Persist on a completed executor must fail")
	}
}

func TestPersistAndRestoreRoundTrip(t *testing.T) {
	cat, err := tpch.Generate(tpch.Config{SF: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := tpch.Get(3)
	node := q.Build(plan.NewBuilder(cat), 0.01)
	ppRef, _ := engine.CompileWith(node, cat, engine.CompileOptions{})
	exRef := engine.NewExecutor(ppRef, engine.Options{Workers: 2})
	want, err := exRef.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for kind, req := range map[Kind]engine.SuspendKind{Pipeline: engine.KindPipeline, Process: engine.KindProcess} {
		pp, _ := engine.CompileWith(node, cat, engine.CompileOptions{})
		ex := engine.NewExecutor(pp, engine.Options{Workers: 2})
		ex.RequestSuspend(req)
		_, err := ex.Run(context.Background())
		if !errors.Is(err, engine.ErrSuspended) {
			t.Fatalf("%v: err = %v", kind, err)
		}
		path := filepath.Join(t.TempDir(), "ck.rvck")
		wres, err := persistFile(ex, path)
		if err != nil {
			t.Fatal(err)
		}
		if wres.Kind != kind.String() {
			t.Errorf("manifest kind = %s, want %s", wres.Kind, kind)
		}
		if kind == Process && wres.TotalBytes == wres.StateBytes {
			t.Error("process checkpoint must carry image padding")
		}
		if kind == Pipeline && wres.TotalBytes != wres.StateBytes {
			t.Error("pipeline checkpoint must not carry padding")
		}

		pp2, _ := engine.CompileWith(node, cat, engine.CompileOptions{})
		run, rres, err := Seam{}.Restore(pp2, "Q3", ResumePoint{TargetFile, path}, LineageConfig{}, engine.Options{Workers: 2})
		if err != nil {
			t.Fatalf("%v restore: %v", kind, err)
		}
		if rres.Duration <= 0 {
			t.Error("restore duration missing")
		}
		got, err := run.Ex.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got.SortedKey() != want.SortedKey() {
			t.Errorf("%v: restored result differs", kind)
		}
	}
}

func TestRestoreRejectsWrongPlan(t *testing.T) {
	cat, err := tpch.Generate(tpch.Config{SF: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	q3, _ := tpch.Get(3)
	node3 := q3.Build(plan.NewBuilder(cat), 0.01)
	pp, _ := engine.CompileWith(node3, cat, engine.CompileOptions{})
	ex := engine.NewExecutor(pp, engine.Options{Workers: 2})
	ex.RequestSuspend(engine.KindProcess)
	if _, err := ex.Run(context.Background()); !errors.Is(err, engine.ErrSuspended) {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.rvck")
	if _, err := persistFile(ex, path); err != nil {
		t.Fatal(err)
	}
	q6, _ := tpch.Get(6)
	node6 := q6.Build(plan.NewBuilder(cat), 0.01)
	pp6, _ := engine.CompileWith(node6, cat, engine.CompileOptions{})
	if _, _, err := (Seam{}).Restore(pp6, "Q6", ResumePoint{TargetFile, path}, LineageConfig{}, engine.Options{Workers: 2}); err == nil {
		t.Fatal("restoring into a different plan must fail")
	}
	m, err := Seam{}.Verify(ResumePoint{TargetFile, path})
	if err != nil || m.Query != "Q3" {
		t.Errorf("manifest = %+v, %v", m, err)
	}
}

func persistFile(ex *engine.Executor, path string) (*PointInfo, error) {
	return Seam{}.Persist(context.Background(), Run{Ex: ex}, "Q3", ResumePoint{TargetFile, path}, PersistOptions{})
}

// countingSink counts the serializations of one pipeline's sink state.
type countingSink struct {
	engine.Sink
	saves *atomic.Int64
}

func (c countingSink) SaveGlobal(gs engine.GlobalState, enc *vector.Encoder) error {
	c.saves.Add(1)
	return c.Sink.SaveGlobal(gs, enc)
}

// TestPersistSerializesOnce pins the one-encode rule: a process-level
// Persist that retries through two transient write faults, runs out of
// space on the padded image's third attempt and lands on the unpadded rung
// has written five times and serialized the executor state exactly once —
// every attempt and rung re-writes the bytes the first encode produced.
func TestPersistSerializesOnce(t *testing.T) {
	pp := setup(t)
	// Every breaker's sink but the result's: whichever finalized states the
	// suspension finds live, each is saved once per SaveState.
	counts := make([]atomic.Int64, len(pp.Pipelines)-1)
	for i := range counts {
		pp.Pipelines[i].Sink = countingSink{pp.Pipelines[i].Sink, &counts[i]}
	}
	reg := obs.NewRegistry()
	ex := engine.NewExecutor(pp, engine.Options{Workers: 2, Obs: obs.Context{Metrics: reg}})
	ex.SuspendWhen(engine.KindProcess, 1<<20)
	if _, err := ex.Run(context.Background()); !errors.Is(err, engine.ErrSuspended) {
		t.Fatalf("Run = %v, want a process-level suspension", err)
	}
	for i := range counts {
		counts[i].Store(0) // breaker-time size estimates serialize too; only Persist counts
	}

	inj := faultfs.New(nil).
		FailTransient(faultfs.OpWrite, 1, 2, nil).
		WriteBudget(64 << 10) // room for the state, not for the padding
	path := filepath.Join(t.TempDir(), "once.rvck")
	info, err := Seam{FS: inj}.Persist(context.Background(), Run{Ex: ex}, "Q3", ResumePoint{TargetFile, path},
		PersistOptions{Retry: checkpoint.RetryPolicy{Attempts: 3}, AllowUnpadded: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != "pipeline" || info.TotalBytes != info.StateBytes {
		t.Fatalf("persist landed %+v, want the unpadded rung", info)
	}
	snap := reg.Snapshot().Counters
	if snap[obs.MetricCheckpointRetry] != 2 || snap[obs.MetricCheckpointFallback] != 1 {
		t.Fatalf("retries=%d fallbacks=%d, want 2 and 1: the faults did not drive the ladder",
			snap[obs.MetricCheckpointRetry], snap[obs.MetricCheckpointFallback])
	}
	var live int
	for i := range counts {
		switch n := counts[i].Load(); n {
		case 0:
		case 1:
			live++
		default:
			t.Errorf("pipeline %d's sink state was serialized %d times by one Persist", i, n)
		}
	}
	if live == 0 {
		t.Fatal("the suspension captured no finalized sink state; nothing was counted")
	}
	if _, err := (Seam{}).Verify(ResumePoint{TargetFile, path}); err != nil {
		t.Errorf("the image that landed does not verify: %v", err)
	}
}
