package tpch

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"github.com/riveterdb/riveter/internal/alloctest"
	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/plan"
)

const benchSF = 0.02

var (
	benchCatOnce sync.Once
	benchCat     *catalog.Catalog
)

func benchCatalog(b *testing.B) *catalog.Catalog {
	b.Helper()
	benchCatOnce.Do(func() {
		cat, err := Generate(Config{SF: benchSF})
		if err != nil {
			panic(err)
		}
		benchCat = cat
	})
	return benchCat
}

// BenchmarkGenerate measures the data generator's throughput.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(Config{SF: 0.005}); err != nil {
			b.Fatal(err)
		}
	}
}

// runToEnd compiles a query's plan and runs it to completion on four
// workers.
func runToEnd(tb testing.TB, cat *catalog.Catalog, node plan.Node) {
	pp, err := engine.Compile(node, cat)
	if err != nil {
		tb.Fatal(err)
	}
	ex := engine.NewExecutor(pp, engine.Options{Workers: 4})
	if _, err := ex.Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkTPCH runs every benchmark query end to end at SF 0.02.
func BenchmarkTPCH(b *testing.B) {
	cat := benchCatalog(b)
	for _, q := range All() {
		node := q.Build(plan.NewBuilder(cat), benchSF)
		b.Run(q.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runToEnd(b, cat, node)
			}
		})
	}
}

// TestQueryAllocCeilings pins the allocs/op of all 22 queries, run as
// BenchmarkTPCH runs them but over the SF 0.01 test catalog, to
// testdata/allocs_sf001.txt within alloctest.Tolerance; -update re-records
// it. No test in this package runs in parallel, which the process-wide
// allocation count needs.
func TestQueryAllocCeilings(t *testing.T) {
	cat := queryCatalog(t)
	var ops []alloctest.Op
	for _, q := range All() {
		node := q.Build(plan.NewBuilder(cat), testSF)
		ops = append(ops, alloctest.Op{Name: q.Name, Run: func() { runToEnd(t, cat, node) }})
	}
	alloctest.Check(t, filepath.Join("testdata", "allocs_sf001.txt"), *update, ops)
}
