package tpch

import (
	"context"
	"fmt"
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

// BenchmarkGenerate measures the data generator at a small scale factor
// and at the benchmark's SF 0.1.
func BenchmarkGenerate(b *testing.B) {
	for _, sf := range []float64{0.005, 0.1} {
		b.Run(fmt.Sprintf("sf%g", sf), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(Config{SF: sf}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// runToEnd compiles a query's plan and runs it to completion on four
// workers.
func runToEnd(tb testing.TB, cat *catalog.Catalog, node plan.Node) {
	pp, err := engine.CompileWith(node, cat, engine.CompileOptions{})
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

// TestGenerateAllocCeiling pins the allocs/op of Generate at SF 0.01 to
// testdata/allocs_generate.txt within alloctest.Tolerance, so that a boxed
// value or a per-cell copy cannot come back into the generator unseen. It
// has a file of its own: `-run TestGenerateAllocCeiling -update`
// re-records it and leaves the query ceilings alone.
func TestGenerateAllocCeiling(t *testing.T) {
	alloctest.Check(t, filepath.Join("testdata", "allocs_generate.txt"), *update, []alloctest.Op{{
		Name: "Generate/sf0.01",
		Run: func() {
			if _, err := Generate(Config{SF: 0.01}); err != nil {
				t.Fatal(err)
			}
		},
	}})
}
