package engine

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/sql"
	"github.com/riveterdb/riveter/internal/tpch"
	"github.com/riveterdb/riveter/internal/vector"
)

// lowerUnpruned lowers node as written, skipping plan.Prune: the step
// CompileWith runs after the pass, on node itself.
func lowerUnpruned(t testing.TB, node plan.Node, cat *catalog.Catalog) *PhysicalPlan {
	t.Helper()
	pp, err := lower(node, node, cat, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// runOn runs pp to completion at one worker, in the deterministic morsel
// order whose result bytes the digests compare.
func runOn(t testing.TB, pp *PhysicalPlan) (*ResultSet, *Executor) {
	t.Helper()
	ex := NewExecutor(pp, Options{Workers: 1})
	res, err := ex.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, ex
}

// checkPruneKeepsResult runs node lowered with and without the pass and
// demands the same result bytes, and the same identity of the plan.
func checkPruneKeepsResult(t *testing.T, name string, cat *catalog.Catalog, node plan.Node) {
	t.Helper()
	pruned, unpruned := mustCompile(t, node, cat), lowerUnpruned(t, node, cat)
	if pruned.Fingerprint != unpruned.Fingerprint || pruned.Root != node || pruned.OutSchema.String() != unpruned.OutSchema.String() {
		t.Errorf("%s: pruned plan names %016x %s, as written %016x %s", name,
			pruned.Fingerprint, pruned.OutSchema, unpruned.Fingerprint, unpruned.OutSchema)
	}
	got, _ := runOn(t, pruned)
	want, _ := runOn(t, unpruned)
	if resultDigest(t, got) != resultDigest(t, want) {
		t.Errorf("%s: pruned result differs from the unpruned one", name)
	}
}

// TestPruneKeepsEquivPlanResults: the pinned plan matrix and the
// suspension tests' join query give the same bytes pruned and not.
func TestPruneKeepsEquivPlanResults(t *testing.T) {
	cat := testDB(t)
	for name, node := range equivPlans(cat) {
		checkPruneKeepsResult(t, name, cat, node)
	}
	checkPruneKeepsResult(t, "complexQuery", cat, complexQuery(cat))
}

var (
	pruneTPCHOnce sync.Once
	pruneTPCH     *catalog.Catalog
)

// pruneTPCHCatalog is TPC-H at SF 0.02, the scale the breaker state sizes
// are measured at.
func pruneTPCHCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	pruneTPCHOnce.Do(func() {
		cat, err := tpch.Generate(tpch.Config{SF: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		pruneTPCH = cat
	})
	return pruneTPCH
}

// breakerBytes sums the MemBytes of every breaker of a finished run but
// the result collector.
func breakerBytes(ex *Executor) int64 {
	var b int64
	for i, p := range ex.pp.Pipelines[:len(ex.pp.Pipelines)-1] {
		b += p.Sink.MemBytes(ex.states[i])
	}
	return b
}

// TestPruneKeepsTPCHResults runs the 22 queries pruned and not: the
// result bytes match, the pipelines are as many (Q15's shared revenue view
// still runs once), and the breaker state of Q7, Q13 and Q21 — whose joins
// and scans carry the most columns nothing reads — shrinks by at least 30 %.
func TestPruneKeepsTPCHResults(t *testing.T) {
	cat := pruneTPCHCatalog(t)
	for _, q := range tpch.All() {
		node := q.Build(plan.NewBuilder(cat), 0.02)
		pruned, unpruned := mustCompile(t, node, cat), lowerUnpruned(t, node, cat)
		if len(pruned.Pipelines) != len(unpruned.Pipelines) {
			t.Errorf("%s: %d pipelines pruned, %d as written", q.Name, len(pruned.Pipelines), len(unpruned.Pipelines))
		}
		got, prunedEx := runOn(t, pruned)
		want, unprunedEx := runOn(t, unpruned)
		if resultDigest(t, got) != resultDigest(t, want) {
			t.Errorf("%s: pruned result differs from the unpruned one", q.Name)
		}
		small, big := breakerBytes(prunedEx), breakerBytes(unprunedEx)
		t.Logf("%s: breaker state %d bytes pruned, %d as written (%.0f %%)", q.Name, small, big, 100*(1-float64(small)/float64(big)))
		switch q.ID {
		case 7, 13, 21:
			if float64(small) > 0.7*float64(big) {
				t.Errorf("%s: breaker state %d bytes pruned, %d as written: less than 30 %% smaller", q.Name, small, big)
			}
		}
		if small > big {
			t.Errorf("%s: breaker state grew from %d to %d bytes", q.Name, big, small)
		}
	}
}

// sqlCatalog is the SQL front end's test catalog: emp (with a NULL name in
// every hundredth row) and dept (with a department nobody works in).
func sqlCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	emp, err := cat.Create("emp", catalog.NewSchema(
		catalog.Col("id", vector.TypeInt64),
		catalog.Col("dept", vector.TypeInt64),
		catalog.Col("salary", vector.TypeFloat64),
		catalog.Col("name", vector.TypeString),
		catalog.Col("hired", vector.TypeDate),
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		name := vector.NewString([]string{"alice", "bob", "carol"}[i%3])
		if i%100 == 7 {
			name = vector.NewNull(vector.TypeString)
		}
		_ = emp.AppendRow(vector.NewInt64(int64(i)), vector.NewInt64(int64(i%5)), vector.NewFloat64(float64(i%200)*10),
			name, vector.NewDate(vector.MustParseDate("1995-01-01")+int64(i%700)))
	}
	dept, err := cat.Create("dept", catalog.NewSchema(
		catalog.Col("did", vector.TypeInt64),
		catalog.Col("dname", vector.TypeString),
	))
	if err != nil {
		t.Fatal(err)
	}
	for d, name := range []string{"eng", "ops", "hr", "sales", "legal"} {
		_ = dept.AppendRow(vector.NewInt64(int64(d)), vector.NewString(name))
	}
	_ = dept.AppendRow(vector.NewInt64(99), vector.NewString("ghost"))
	return cat
}

// FuzzPruneKeepsSQLResults is FuzzCompileSQL's differential half: a
// statement that compiles runs lowered with and without the pass, at one
// worker, and both give the same result bytes. The unpruned lowering is
// unexported, so the target lives here; its seeds are FuzzCompileSQL's
// corpus (internal/sql/testdata/fuzz/FuzzCompileSQL), read in place. As
// there, a plan with more than one join is not run.
func FuzzPruneKeepsSQLResults(f *testing.F) {
	dir := filepath.Join("..", "sql", "testdata", "fuzz", "FuzzCompileSQL")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if arg, ok := strings.CutPrefix(line, "string("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
				if err != nil {
					f.Fatalf("%s: %v", e.Name(), err)
				}
				f.Add(s)
			}
		}
	}
	cat := sqlCatalog(f)
	f.Fuzz(func(t *testing.T, query string) {
		node, err := sql.Compile(query, cat)
		if err != nil {
			return
		}
		pruned, err := CompileWith(node, cat, CompileOptions{})
		if err != nil {
			return
		}
		joins := 0
		plan.Walk(node, func(n plan.Node) {
			if _, ok := n.(*plan.Join); ok {
				joins++
			}
		})
		if joins > 1 {
			return
		}
		unpruned, err := lower(node, node, cat, CompileOptions{})
		if err != nil {
			t.Fatalf("%q: the pruned plan lowers, the unpruned one fails: %v", query, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		got, gerr := NewExecutor(pruned, Options{Workers: 1}).Run(ctx)
		want, werr := NewExecutor(unpruned, Options{Workers: 1}).Run(ctx)
		if ctx.Err() != nil {
			return
		}
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%q: pruned run %v, unpruned run %v", query, gerr, werr)
		}
		if gerr == nil && resultDigest(t, got) != resultDigest(t, want) {
			t.Fatalf("%q: pruned result differs from the unpruned one", query)
		}
	})
}

// BenchmarkPruneQ2 times the pass on Q2, the plan with the most joins of
// the 22; BenchmarkLowerQ2 times the lowering CompileWith runs after it.
// The pass is meant to cost less than the lowering.
func BenchmarkPruneQ2(b *testing.B) {
	node := q2Plan(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prunedSink = plan.Prune(node)
	}
}

// prunedSink and loweredSink keep the benchmarks' calls from being
// optimized away.
var (
	prunedSink  plan.Node
	loweredSink *PhysicalPlan
)

// BenchmarkLowerQ2 times the lowering of the pruned Q2.
func BenchmarkLowerQ2(b *testing.B) {
	cat := pruneTPCHCatalog(b)
	node := q2Plan(b)
	pruned := plan.Prune(node)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pp, err := lower(node, pruned, cat, CompileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		loweredSink = pp
	}
}

func q2Plan(b *testing.B) plan.Node {
	q, err := tpch.Get(2)
	if err != nil {
		b.Fatal(err)
	}
	return q.Build(plan.NewBuilder(pruneTPCHCatalog(b)), 0.02)
}
