package engine

import (
	"context"
	"slices"
	"strings"
	"testing"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/tpch"
	"github.com/riveterdb/riveter/internal/vector"
)

// lowerNoTransfer lowers node, pruned, without predicate transfer: the
// lowering CompileWith runs, but for the pass.
func lowerNoTransfer(t testing.TB, node plan.Node, cat *catalog.Catalog) *PhysicalPlan {
	t.Helper()
	pp, err := lowerWith(node, plan.Prune(node), cat, CompileOptions{}, transferPlan{})
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// samePipelines reports whether a and b lower to the same pipelines:
// labels, deps, order and Ordered flags.
func samePipelines(a, b *PhysicalPlan) bool {
	return slices.EqualFunc(a.Pipelines, b.Pipelines, func(p, q *Pipeline) bool {
		return p.Label == q.Label && slices.Equal(p.Deps, q.Deps) && p.Ordered == q.Ordered
	})
}

// TestTransferShapes pins where predicate transfer applies. Of the 22
// TPC-H plans, the plan matrix and dagQuery, exactly Q17 and Q20 gain a
// key filter in an aggregate's pipeline and a Deps edge from it to a join
// build lowered before it; every other plan lowers to the pipelines,
// labels, deps and order it lowers to without the pass. dagQuery's
// branch aggregates, joined on their group keys, must keep running side
// by side: no scan bounds the keys of a build fed by an aggregate.
func TestTransferShapes(t *testing.T) {
	var gained []string
	check := func(name string, node plan.Node, cat *catalog.Catalog) {
		with, without := mustCompile(t, node, cat), lowerNoTransfer(t, node, cat)
		if samePipelines(with, without) {
			return
		}
		gained = append(gained, name)
		if len(with.Pipelines) != len(without.Pipelines) {
			t.Errorf("%s: %d pipelines with the transfer, %d without", name, len(with.Pipelines), len(without.Pipelines))
		}
		filtered := 0
		for _, p := range with.Pipelines {
			if !strings.HasSuffix(p.Label, "keyfilter->aggregate") {
				continue
			}
			// The key filter is the sink's last operator: a semi probe of
			// the source build without a residual, passing its rows whole.
			filtered++
			kf, ok := p.Ops[len(p.Ops)-1].(*HashJoinProbeOp)
			if !ok || kf.Type != plan.SemiJoin || kf.extra != nil || !kf.whole {
				t.Errorf("%s: pipeline %d %q ends in %T, not a semi probe without residual", name, p.ID, p.Label, p.Ops[len(p.Ops)-1])
				continue
			}
			if _, isAgg := p.Sink.(*FlatAggSink); !isAgg || !slices.Contains(p.Deps, kf.buildID) || kf.buildID >= p.ID {
				t.Errorf("%s: pipeline %d %q filters by pipeline %d, deps %v", name, p.ID, p.Label, kf.buildID, p.Deps)
			}
			if _, isBuild := with.Pipelines[kf.buildID].Sink.(*HashJoinBuildSink); !isBuild {
				t.Errorf("%s: pipeline %d filters by pipeline %d %q, no join build", name, p.ID, kf.buildID, with.Pipelines[kf.buildID].Label)
			}
		}
		if filtered != 1 {
			t.Errorf("%s: %d key filters, want one", name, filtered)
		}
	}
	cat := pruneTPCHCatalog(t)
	for _, q := range tpch.All() {
		check(q.Name, q.Build(plan.NewBuilder(cat), 0.02), cat)
	}
	matrix := testDB(t)
	for name, node := range equivPlans(matrix) {
		check("equivPlans["+name+"]", node, matrix)
	}
	check("dagQuery", dagQuery(matrix), matrix)
	if !slices.Equal(gained, []string{"Q17", "Q20"}) {
		t.Errorf("plans the transfer changes: %v, want [Q17 Q20]", gained)
	}
}

// transferShapes are the plans FuzzTransferKeepsResults lowers, over f, a
// table of 64 to 127 rows, and d and s, of up to 15 and 7, each with
// whether a transfer applies to it. The first seven are shapes (A), the
// aggregate on a join's probe side, and (B), the aggregate on a build side
// whose probe side passed a probe on the equated keys; the rest are
// refused, the last two because no scan bounds the source's keys below
// the aggregate's input rows.
var transferShapes = []struct {
	name    string
	applies bool
	build   func(b *plan.Builder) plan.Node
}{
	{"probe-inner", true, func(b *plan.Builder) plan.Node {
		return fAgg(b, "k").Rename("a.").Join(b.Scan("d"), plan.InnerJoin, []string{"a.k"}, []string{"k"}).Node()
	}},
	{"probe-semi", true, func(b *plan.Builder) plan.Node {
		return fAgg(b, "k").Join(b.Scan("d"), plan.SemiJoin, []string{"k"}, []string{"k"}).Node()
	}},
	{"probe-two-keys", true, func(b *plan.Builder) plan.Node {
		return fAgg(b, "k", "g").Rename("a.").Join(b.Scan("d"), plan.InnerJoin, []string{"a.k", "a.g"}, []string{"k", "g"}).Node()
	}},
	{"probe-through-filter-project", true, func(b *plan.Builder) plan.Node {
		a := fAgg(b, "g", "k")
		a = a.Filter(expr.Gt(a.Col("n"), expr.Int(1))).Keep("k", "sv").Rename("a.")
		return a.Join(b.Scan("d"), plan.InnerJoin, []string{"a.k"}, []string{"k"}).Node()
	}},
	{"probe-residual", true, func(b *plan.Builder) plan.Node {
		return fAgg(b, "k").Rename("a.").JoinExtra(b.Scan("d"), plan.InnerJoin, []string{"a.k"}, []string{"k"},
			func(cr plan.ColResolver) expr.Expr { return expr.Gt(cr.Col("a.sv"), cr.Col("w")) }).Node()
	}},
	{"build-semi-source", true, func(b *plan.Builder) plan.Node {
		d := b.Scan("d").Join(b.Scan("s"), plan.SemiJoin, []string{"k"}, []string{"k"})
		return d.Join(fAgg(b, "k", "g").Rename("a."), plan.InnerJoin, []string{"k", "g"}, []string{"a.k", "a.g"}).Node()
	}},
	{"build-inner-source", true, func(b *plan.Builder) plan.Node {
		d := b.Scan("d").Join(b.Scan("s").Rename("s."), plan.InnerJoin, []string{"k"}, []string{"s.k"})
		return d.Join(fAgg(b, "k").Rename("a."), plan.SemiJoin, []string{"k"}, []string{"a.k"}).Node()
	}},
	{"left-outer", false, func(b *plan.Builder) plan.Node {
		return fAgg(b, "k").Rename("a.").Join(b.Scan("d"), plan.LeftOuterJoin, []string{"a.k"}, []string{"k"}).Node()
	}},
	{"anti", false, func(b *plan.Builder) plan.Node {
		return fAgg(b, "k").Join(b.Scan("d"), plan.AntiJoin, []string{"k"}, []string{"k"}).Node()
	}},
	{"build-anti-source", false, func(b *plan.Builder) plan.Node {
		d := b.Scan("d").Join(b.Scan("s"), plan.AntiJoin, []string{"k"}, []string{"k"})
		return d.Join(fAgg(b, "k", "g").Rename("a."), plan.InnerJoin, []string{"k", "g"}, []string{"a.k", "a.g"}).Node()
	}},
	{"global", false, func(b *plan.Builder) plan.Node {
		f := b.Scan("f")
		return f.Agg(nil, plan.CountStar("n")).Join(b.Scan("d"), plan.InnerJoin, []string{"n"}, []string{"k"}).Node()
	}},
	{"computed-group-key", false, func(b *plan.Builder) plan.Node {
		f := b.Scan("f")
		a := f.AggExprs([]string{"kk"}, []expr.Expr{expr.Add(f.Col("k"), expr.Int(1))}, plan.Sum(f.Col("v"), "sv"))
		return a.Join(b.Scan("d"), plan.InnerJoin, []string{"kk"}, []string{"k"}).Node()
	}},
	{"aggregate-key", false, func(b *plan.Builder) plan.Node {
		return fAgg(b, "k").Rename("a.").Join(b.Scan("d"), plan.InnerJoin, []string{"a.n"}, []string{"k"}).Node()
	}},
	{"shared", false, func(b *plan.Builder) plan.Node {
		rev := fAgg(b, "k")
		top := rev.Agg(nil, plan.Max(rev.Col("sv"), "m"))
		j := rev.Join(b.Scan("d"), plan.InnerJoin, []string{"k"}, []string{"k"}).Cross(top)
		return j.Filter(expr.Eq(j.Col("sv"), j.Col("m"))).Node()
	}},
	{"right-semi", false, func(b *plan.Builder) plan.Node {
		return fAgg(b, "k").Join(b.Scan("d"), plan.RightSemiJoin, []string{"k"}, []string{"k"}).Node()
	}},
	{"large-build", false, func(b *plan.Builder) plan.Node {
		d := b.Scan("d")
		a := d.Agg([]string{"k"}, plan.Sum(d.Col("w"), "sw")).Rename("a.")
		return a.Join(b.Scan("f"), plan.InnerJoin, []string{"a.k"}, []string{"k"}).Node()
	}},
	{"aggregate-build", false, func(b *plan.Builder) plan.Node {
		d := b.Scan("d")
		bd := d.Agg([]string{"k"}, plan.Sum(d.Col("w"), "sw")).Rename("b.")
		return fAgg(b, "k").Rename("a.").Join(bd, plan.InnerJoin, []string{"a.k"}, []string{"b.k"}).Node()
	}},
}

// fAgg groups f by keys, summing v and counting rows.
func fAgg(b *plan.Builder, keys ...string) *plan.Rel {
	f := b.Scan("f")
	return f.Agg(keys, plan.Sum(f.Col("v"), "sv"), plan.CountStar("n"))
}

// transferCatalog draws f, d and s from g: keys k in [0, 5) and g in
// [0, 3), so they repeat, with about one k in nine NULL.
func transferCatalog(t testing.TB, g *joinGen) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	key := func(b int) vector.Value {
		if b%9 == 8 {
			return vector.NewNull(vector.TypeInt64)
		}
		return vector.NewInt64(int64(b % 5))
	}
	fill := func(name string, rows int, cols ...catalog.Column) {
		tbl, err := cat.Create(name, catalog.NewSchema(cols...))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			row := []vector.Value{key(g.next())}
			if len(cols) > 1 {
				row = append(row, vector.NewInt64(int64(g.next()%3)), vector.NewFloat64(float64(g.next()%7)))
			}
			if err := tbl.AppendRow(row...); err != nil {
				t.Fatal(err)
			}
		}
	}
	nf, nd, ns := 64+g.next()%64, g.next()%16, g.next()%8
	k, kg := catalog.Col("k", vector.TypeInt64), catalog.Col("g", vector.TypeInt64)
	fill("f", nf, k, kg, catalog.Col("v", vector.TypeFloat64))
	fill("d", nd, k, kg, catalog.Col("w", vector.TypeFloat64))
	fill("s", ns, k)
	return cat
}

// FuzzTransferKeepsResults lowers one of transferShapes over tables drawn
// from the input with predicate transfer and without it (lowerWith with
// no transferPlan, which only this package reaches), and demands the same
// result bytes at one worker and the same rows at three. The transfer
// must apply to exactly the shapes marked so.
func FuzzTransferKeepsResults(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &joinGen{data: data}
		shape := transferShapes[g.next()%len(transferShapes)]
		cat := transferCatalog(t, g)
		node := shape.build(plan.NewBuilder(cat))
		if applies := len(planTransfers(plan.Prune(node), cat).filters) > 0; applies != shape.applies {
			t.Fatalf("%s: transfer applies %v, want %v", shape.name, applies, shape.applies)
		}
		with, without := mustCompile(t, node, cat), lowerNoTransfer(t, node, cat)
		for _, workers := range []int{1, 3} {
			got, err := NewExecutor(with, Options{Workers: workers}).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewExecutor(without, Options{Workers: workers}).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 && resultDigest(t, got) != resultDigest(t, want) || got.SortedKey() != want.SortedKey() {
				t.Fatalf("%s at %d workers: %d rows with the transfer, %d without, or other bytes",
					shape.name, workers, got.NumRows(), want.NumRows())
			}
		}
	})
}
