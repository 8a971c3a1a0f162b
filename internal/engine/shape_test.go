package engine_test

import (
	"fmt"
	"slices"
	"testing"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/fold"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/tpch"
)

// TestCompileShapeIsFoldIndependent pins the invariant a fold checkpoint
// restoring on a fold-off database relies on: scan sharing changes where a
// scan's morsels come from, never the pipelines a plan lowers to. Every
// TPC-H plan and the pinned plan matrix compile to the same pipeline count,
// labels, dependencies and ordering with and without ScanShare.
func TestCompileShapeIsFoldIndependent(t *testing.T) {
	check := func(t *testing.T, name string, node plan.Node, cat *catalog.Catalog) {
		t.Helper()
		plain, err := engine.CompileWith(node, cat, engine.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		shared, err := engine.CompileWith(node, cat, engine.CompileOptions{ScanShare: fold.NewManager(nil, nil)})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(shared.Pipelines), len(plain.Pipelines); got != want {
			t.Fatalf("%s: %d pipelines with ScanShare, %d without", name, got, want)
		}
		for i, p := range plain.Pipelines {
			s := shared.Pipelines[i]
			if s.Label != p.Label || !slices.Equal(s.Deps, p.Deps) || s.Ordered != p.Ordered {
				t.Errorf("%s pipeline %d: shared {%q deps=%v ordered=%v}, plain {%q deps=%v ordered=%v}",
					name, i, s.Label, s.Deps, s.Ordered, p.Label, p.Deps, p.Ordered)
			}
		}
	}

	const sf = 0.001
	cat, err := tpch.Generate(tpch.Config{SF: sf})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range tpch.All() {
		check(t, q.Name, q.Build(plan.NewBuilder(cat), sf), cat)
	}
	matrix := engine.TestDB(t)
	for name, node := range engine.EquivPlans(matrix) {
		check(t, fmt.Sprintf("equivPlans[%s]", name), node, matrix)
	}
	// One view built twice and joined with itself: distinct nodes with
	// equal fingerprints. Only pointer-identical subplans may share a
	// breaker, so both copies lower to their own pipelines whether or not
	// scans are shared.
	b := plan.NewBuilder(matrix)
	view := func(prefix string) *plan.Rel {
		e := b.Scan("emp", "dept", "salary")
		return e.Agg([]string{"dept"}, plan.Sum(e.Col("salary"), "total")).Rename(prefix)
	}
	twin := view("l.").Join(view("r."), plan.InnerJoin, []string{"l.dept"}, []string{"r.dept"})
	check(t, "twin-view", twin.Node(), matrix)
}
