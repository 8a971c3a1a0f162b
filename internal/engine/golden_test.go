package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

var update = flag.Bool("update", false, "re-record testdata/equiv_results.json and testdata/allocs.txt from this build")

// equivPlans is the plan matrix whose result bytes are pinned: filter,
// project, fused filter+project and every aggregate fold, over columns with
// and without nulls.
func equivPlans(cat *catalog.Catalog) map[string]plan.Node {
	mk := func(build func(b *plan.Builder) plan.Node) plan.Node {
		return build(plan.NewBuilder(cat))
	}
	return map[string]plan.Node{
		"filter-project-arith": mk(func(b *plan.Builder) plan.Node {
			e := b.Scan("emp", "id", "dept", "salary")
			return e.Filter(expr.And(
				expr.Lt(e.Col("id"), expr.Int(9000)),
				expr.Ge(expr.Mul(e.Col("salary"), expr.Float(1.1)), expr.Float(50)),
			)).Project([]string{"id", "adj", "ratio"},
				e.Col("id"),
				expr.Add(expr.Mul(e.Col("salary"), expr.Float(0.5)), expr.Float(7)),
				expr.Div(e.Col("salary"), expr.ToFloat(expr.Add(e.Col("dept"), expr.Int(1)))),
			).Node()
		}),
		"div-by-zero-nulls": mk(func(b *plan.Builder) plan.Node {
			e := b.Scan("emp", "id", "dept", "salary")
			return e.Project([]string{"id", "q"},
				e.Col("id"),
				expr.Div(e.Col("salary"), expr.ToFloat(e.Col("dept"))), // dept 0 -> NULL
			).Node()
		}),
		"string-filter-like": mk(func(b *plan.Builder) plan.Node {
			e := b.Scan("emp", "id", "name")
			return e.Filter(expr.And(
				expr.Like(e.Col("name"), "e%3"),
				expr.IsNotNull(e.Col("name")),
			)).Node()
		}),
		"case-project": mk(func(b *plan.Builder) plan.Node {
			e := b.Scan("emp", "id", "salary", "name")
			return e.Project([]string{"band", "name"},
				expr.When(expr.Gt(e.Col("salary"), expr.Float(500)), expr.Str("high"), expr.Str("low")),
				e.Col("name"),
			).Node()
		}),
		"agg-flat": mk(func(b *plan.Builder) plan.Node {
			e := b.Scan("emp", "id", "dept", "salary", "name")
			return e.Agg([]string{"dept"},
				plan.Sum(e.Col("salary"), "total"),
				plan.Avg(e.Col("salary"), "mean"),
				plan.Count(e.Col("name"), "named"), // null names are skipped
				plan.Min(e.Col("id"), "lo"),
				plan.Max(e.Col("id"), "hi"),
				plan.CountStar("n"),
			).Sort(plan.Asc("dept")).Node()
		}),
		"agg-global-empty": mk(func(b *plan.Builder) plan.Node {
			e := b.Scan("emp", "id", "salary")
			return e.Filter(expr.Lt(e.Col("id"), expr.Int(-1))).
				Agg(nil, plan.Sum(expr.NamedCol(1, vector.TypeFloat64, ""), "total"), plan.CountStar("n")).Node()
		}),
		"join-agg-topn": mk(func(b *plan.Builder) plan.Node {
			e := b.Scan("emp", "id", "dept", "salary")
			d := b.Scan("dept")
			return e.Join(d, plan.InnerJoin, []string{"dept"}, []string{"did"}).
				Agg([]string{"dname"},
					plan.Sum(expr.NamedCol(2, vector.TypeFloat64, ""), "total"),
					plan.CountStar("n")).
				Sort(plan.Desc("total"), plan.Asc("dname")).
				Limit(5).Node()
		}),
		"distinct-agg": mk(func(b *plan.Builder) plan.Node {
			e := b.Scan("emp", "id", "dept", "salary")
			return e.Agg([]string{"dept"},
				plan.CountDistinct(e.Col("salary"), "dsal")).
				Sort(plan.Asc("dept")).Node()
		}),
	}
}

// resultDigest hashes a result's serialized row buffer; equal digests mean
// results identical down to null bitmaps and float bit patterns.
func resultDigest(t *testing.T, res *ResultSet) string {
	t.Helper()
	h := sha256.New()
	enc := vector.NewEncoder(h)
	res.Buf.Save(enc)
	if err := enc.Err(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPlansMatchRecordedResults demands, on one worker (deterministic morsel
// order), the result bytes recorded in testdata. They were recorded from the
// interpreted operators and the map-based aggregate at the last commit that
// had them — an implementation sharing no code with FusedOp, FlatAggSink and
// the compiled programs that produce them now. -update re-records from this
// build; do that only for a change that is meant to move result bytes.
func TestPlansMatchRecordedResults(t *testing.T) {
	cat := testDB(t)
	path := filepath.Join("testdata", "equiv_results.json")
	got := map[string]string{}
	for name, node := range equivPlans(cat) {
		got[name] = resultDigest(t, runPlan(t, cat, node, 1))
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s lists %d plans, want %d", path, len(want), len(got))
	}
	for name, digest := range got {
		if digest != want[name] {
			t.Errorf("%s: result digest %s, recorded %s", name, digest, want[name])
		}
	}
}

// TestPlansWorkerCountEquivalence checks the same matrix across worker
// counts, where float combine order may differ, via the tolerant canonical
// key.
func TestPlansWorkerCountEquivalence(t *testing.T) {
	cat := testDB(t)
	for name, node := range equivPlans(cat) {
		t.Run(name, func(t *testing.T) {
			ref := runPlan(t, cat, node, 1).SortedKey()
			for _, workers := range []int{2, 4} {
				if got := runPlan(t, cat, node, workers).SortedKey(); got != ref {
					t.Errorf("%d-worker result differs from the 1-worker reference", workers)
				}
			}
		})
	}
}

// TestFusePipelineOpsMergesFilterProject pins the merge: a compiled
// scan+filter+project pipeline carries one fused operator, not two, and
// it gathers the rows that pass of only the column the projection reads.
func TestFusePipelineOpsMergesFilterProject(t *testing.T) {
	cat := testDB(t)
	b := plan.NewBuilder(cat)
	e := b.Scan("emp", "id", "salary")
	node := e.Filter(expr.Lt(e.Col("id"), expr.Int(100))).
		Project([]string{"v"}, expr.Mul(e.Col("salary"), expr.Float(2))).Node()
	pp := mustCompile(t, node, cat)
	p := pp.Pipelines[len(pp.Pipelines)-1]
	if len(p.Ops) != 1 {
		t.Fatalf("ops = %d, want 1 fused op", len(p.Ops))
	}
	f, ok := p.Ops[0].(*FusedOp)
	if !ok {
		t.Fatalf("op is %T, want *FusedOp", p.Ops[0])
	}
	if f.pred == nil || f.projs == nil {
		t.Error("merged op should carry both predicate and projections")
	}
	if !slices.Equal(f.gather, []int{1}) {
		t.Errorf("merged op gathers columns %v, want [1] (salary)", f.gather)
	}
}
