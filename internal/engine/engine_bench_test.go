package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/riveterdb/riveter/internal/alloctest"
	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

// Micro-benchmarks of the engine's core operators and of the suspension
// machinery itself (state serialization and round-trips). engineCases is
// shared with TestEngineAllocCeilings, which pins each case's allocs/op.

// engineCase is one measured operation over the synthetic table t.
type engineCase struct {
	name string
	rows int
	// setup prepares the operation over cat and returns it.
	setup func(tb testing.TB, cat *catalog.Catalog) func()
}

// planCase compiles and runs a plan to completion on four workers.
func planCase(name string, rows int, build func(bl *plan.Builder) plan.Node) engineCase {
	return engineCase{name, rows, func(tb testing.TB, cat *catalog.Catalog) func() {
		node := build(plan.NewBuilder(cat))
		return func() { runPlan(tb, cat, node, 4) }
	}}
}

var engineCases = []engineCase{
	planCase("ScanFilter", 1<<18, func(bl *plan.Builder) plan.Node {
		t := bl.Scan("t", "k", "v")
		return t.Filter(expr.Gt(t.Col("v"), expr.Float(500))).
			Agg(nil, plan.CountStar("n")).Node()
	}),
	planCase("HashAggregate", 1<<18, func(bl *plan.Builder) plan.Node {
		t := bl.Scan("t", "g", "v")
		return t.Agg([]string{"g"}, plan.Sum(t.Col("v"), "s"), plan.CountStar("n")).Node()
	}),
	// One group per row (2^18): the tables grow, and Combine and Finalize
	// carry every group.
	planCase("HashAggregateHighCard", 1<<18, func(bl *plan.Builder) plan.Node {
		t := bl.Scan("t", "k", "v")
		return t.Agg([]string{"k"}, plan.Sum(t.Col("v"), "s"), plan.CountStar("n")).Node()
	}),
	// Self-join on the group column: ~128 matches per probe row band.
	planCase("HashJoin", 1<<17, func(bl *plan.Builder) plan.Node {
		l := bl.Scan("t", "k", "g")
		r := bl.Scan("t", "k", "g").Rename("r.")
		rf := r.Filter(expr.Lt(r.Col("r.k"), expr.Int(1024)))
		return l.Join(rf, plan.InnerJoin, []string{"g"}, []string{"r.k"}).
			Agg(nil, plan.CountStar("n")).Node()
	}),
	// Four build rows per key: a semi join without a residual predicate
	// stops at the first.
	planCase("HashJoinSemi", 1<<17, func(bl *plan.Builder) plan.Node {
		l := bl.Scan("t", "k", "g")
		r := bl.Scan("t", "k", "g").Rename("r.")
		rf := r.Filter(expr.Lt(r.Col("r.k"), expr.Int(4096)))
		return l.Join(rf, plan.SemiJoin, []string{"g"}, []string{"r.g"}).
			Agg(nil, plan.CountStar("n")).Node()
	}),
	// Four build rows per key, and a residual predicate over both sides
	// that keeps about half the pairs.
	planCase("HashJoinResidual", 1<<17, func(bl *plan.Builder) plan.Node {
		l := bl.Scan("t", "k", "g", "v")
		r := bl.Scan("t", "k", "g", "v").Rename("r.")
		rf := r.Filter(expr.Lt(r.Col("r.k"), expr.Int(4096)))
		return l.JoinExtra(rf, plan.InnerJoin, []string{"g"}, []string{"r.g"},
			func(c plan.ColResolver) expr.Expr { return expr.Lt(c.Col("v"), c.Col("r.v")) }).
			Agg(nil, plan.CountStar("n")).Node()
	}),
	planCase("Sort", 1<<17, func(bl *plan.Builder) plan.Node {
		t := bl.Scan("t", "v", "k")
		return t.Sort(plan.Desc("v"), plan.Asc("k")).Limit(1).Node()
	}),
	planCase("TopN", 1<<18, func(bl *plan.Builder) plan.Node {
		t := bl.Scan("t", "v", "k")
		return t.Sort(plan.Desc("v"), plan.Asc("k")).Limit(100).Node()
	}),
	// A full pipeline-level suspension state round trip: serialize the
	// state of a query suspended after its aggregation, load it into a
	// fresh executor.
	{"PipelineCheckpointSaveLoad", 1 << 17, func(tb testing.TB, cat *catalog.Catalog) func() {
		bl := plan.NewBuilder(cat)
		t := bl.Scan("t", "g", "v")
		node := t.Agg([]string{"g"}, plan.Sum(t.Col("v"), "s")).
			Sort(plan.Desc("s")).Node()
		pp, _ := CompileWith(node, cat, CompileOptions{})
		ex := NewExecutor(pp, Options{
			Workers: 4,
			OnBreaker: func(ev *BreakerEvent) BreakerAction {
				if ev.PipelineIdx == 0 {
					return ActionSuspend
				}
				return ActionContinue
			},
		})
		if _, err := ex.Run(context.Background()); !errors.Is(err, ErrSuspended) {
			tb.Fatal(err)
		}
		return func() {
			var out bytes.Buffer
			if err := ex.SaveState(vector.NewEncoder(&out)); err != nil {
				tb.Fatal(err)
			}
			pp2, _ := CompileWith(node, cat, CompileOptions{})
			ex2 := NewExecutor(pp2, Options{Workers: 4})
			if err := ex2.LoadState(vector.NewDecoder(bytes.NewReader(out.Bytes()))); err != nil {
				tb.Fatal(err)
			}
		}
	}},
	// A complete suspend->save->load->finish cycle of HashAggregate's
	// plan, suspended process-level mid-scan.
	{"ProcessSuspendResume", 1 << 17, func(tb testing.TB, cat *catalog.Catalog) func() {
		bl := plan.NewBuilder(cat)
		t := bl.Scan("t", "g", "v")
		node := t.Agg([]string{"g"}, plan.Sum(t.Col("v"), "s")).Node()
		return func() {
			pp, _ := CompileWith(node, cat, CompileOptions{})
			ex := NewExecutor(pp, Options{Workers: 4})
			ex.SuspendWhen(KindProcess, 1<<21)
			_, err := ex.Run(context.Background())
			if err == nil {
				return // finished before the trigger; still a measurement
			}
			if !errors.Is(err, ErrSuspended) {
				tb.Fatal(err)
			}
			var buf bytes.Buffer
			if err := ex.SaveState(vector.NewEncoder(&buf)); err != nil {
				tb.Fatal(err)
			}
			pp2, _ := CompileWith(node, cat, CompileOptions{})
			ex2 := NewExecutor(pp2, Options{Workers: 4})
			if err := ex2.LoadState(vector.NewDecoder(bytes.NewReader(buf.Bytes()))); err != nil {
				tb.Fatal(err)
			}
			if _, err := ex2.Run(context.Background()); err != nil {
				tb.Fatal(err)
			}
		}
	}},
}

// benchCatalogs caches the synthetic table per row count: the benchmarks
// and the ceiling test share them.
var benchCatalogs = map[int]*catalog.Catalog{}

func benchCatalog(tb testing.TB, rows int) *catalog.Catalog {
	tb.Helper()
	if cat, ok := benchCatalogs[rows]; ok {
		return cat
	}
	cat := catalog.New()
	tbl, err := cat.Create("t", catalog.NewSchema(
		catalog.Col("k", vector.TypeInt64),
		catalog.Col("g", vector.TypeInt64),
		catalog.Col("v", vector.TypeFloat64),
		catalog.Col("s", vector.TypeString),
	))
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		_ = tbl.AppendRow(
			vector.NewInt64(int64(i)),
			vector.NewInt64(int64(i%1024)),
			vector.NewFloat64(float64(i%1000)),
			vector.NewString([]string{"alpha", "beta", "gamma", "delta"}[i%4]),
		)
	}
	benchCatalogs[rows] = cat
	return cat
}

func BenchmarkEngine(b *testing.B) {
	for _, c := range engineCases {
		b.Run(c.name, func(b *testing.B) {
			op := c.setup(b, benchCatalog(b, c.rows))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// BenchmarkWorkerScaling measures morsel-parallel speedup of a scan+agg.
func BenchmarkWorkerScaling(b *testing.B) {
	cat := benchCatalog(b, 1<<19)
	bl := plan.NewBuilder(cat)
	t := bl.Scan("t", "g", "v")
	node := t.Agg([]string{"g"}, plan.Sum(t.Col("v"), "s")).Node()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runPlan(b, cat, node, w)
			}
		})
	}
}

// TestEngineAllocCeilings pins the allocs/op of every engineCases
// operation to testdata/allocs.txt within alloctest.Tolerance; -update
// re-records it. No test in this package runs in parallel, which the
// process-wide allocation count needs.
func TestEngineAllocCeilings(t *testing.T) {
	var ops []alloctest.Op
	for _, c := range engineCases {
		ops = append(ops, alloctest.Op{Name: c.name, Run: c.setup(t, benchCatalog(t, c.rows))})
	}
	alloctest.Check(t, filepath.Join("testdata", "allocs.txt"), *update, ops)
}
