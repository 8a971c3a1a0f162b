package strategy

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/tpch"
)

// BenchmarkLineageSuspend times ONLY the seal — the marginal cost of a
// lineage suspension once the query has quiesced. The state was persisted
// incrementally while the query ran, so this is a tail flush + fsync;
// TestLineageSealWritesTenthOfProcessImage holds its bytes to a tenth of
// the process image's.
func BenchmarkLineageSuspend(b *testing.B) {
	cat, err := tpch.Generate(tpch.Config{SF: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	q, err := tpch.Get(3)
	if err != nil {
		b.Fatal(err)
	}
	node := q.Build(plan.NewBuilder(cat), 0.01)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pp, err := engine.CompileWith(node, cat, engine.CompileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("b%d.rvlg", i))
		lin, err := CreateLineageLog(path, "Q3", pp.Fingerprint, 2, LineageOptions{})
		if err != nil {
			b.Fatal(err)
		}
		ex := engine.NewExecutor(pp, engine.Options{Workers: 2, OnBreaker: lin.OnBreaker})
		ex.SuspendWhen(engine.KindProcess, 1<<19)
		if _, err := ex.Run(context.Background()); !errors.Is(err, engine.ErrSuspended) {
			b.Fatalf("run err = %v, want ErrSuspended", err)
		}
		info := ex.Suspended()
		b.StartTimer()
		if _, err := lin.Seal(info); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		lin.Close()
		os.Remove(path)
		b.StartTimer()
	}
}

// BenchmarkLineageReplay times the resume half: scan the sealed log, load
// the last sealed breaker state, and re-execute the unfinished pipelines to
// completion. Bounded by the seal interval, not the query's total runtime.
func BenchmarkLineageReplay(b *testing.B) {
	cat, err := tpch.Generate(tpch.Config{SF: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	q, err := tpch.Get(3)
	if err != nil {
		b.Fatal(err)
	}
	node := q.Build(plan.NewBuilder(cat), 0.01)
	pp, err := engine.CompileWith(node, cat, engine.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "replay.rvlg")
	lin, err := CreateLineageLog(path, "Q3", pp.Fingerprint, 2, LineageOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ex := engine.NewExecutor(pp, engine.Options{Workers: 2, OnBreaker: lin.OnBreaker})
	ex.SuspendWhen(engine.KindProcess, 1<<19)
	if _, err := ex.Run(context.Background()); !errors.Is(err, engine.ErrSuspended) {
		b.Fatalf("run err = %v, want ErrSuspended", err)
	}
	if _, err := lin.Seal(ex.Suspended()); err != nil {
		b.Fatal(err)
	}
	lin.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex2, _, err := RestoreLineage(nil, cat, node, path, engine.Options{Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ex2.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
