package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

// testDB builds a small catalog:
//
//	emp(id, dept, salary, name)      : 10000 rows, dept = id%7, salary = id%1000
//	dept(did, dname)                 : 7 rows (did 0..6), plus did 100 with no emps
//	bonus(bid, bdept, amount)        : 500 rows, bdept = bid%10 (depts 7..9 dangle)
func testDB(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	emp, err := cat.Create("emp", catalog.NewSchema(
		catalog.Col("id", vector.TypeInt64),
		catalog.Col("dept", vector.TypeInt64),
		catalog.Col("salary", vector.TypeFloat64),
		catalog.Col("name", vector.TypeString),
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		name := vector.NewString(fmt.Sprintf("e%04d", i))
		if i%500 == 3 {
			name = vector.NewNull(vector.TypeString)
		}
		_ = emp.AppendRow(
			vector.NewInt64(int64(i)),
			vector.NewInt64(int64(i%7)),
			vector.NewFloat64(float64(i%1000)),
			name,
		)
	}
	dept, err := cat.Create("dept", catalog.NewSchema(
		catalog.Col("did", vector.TypeInt64),
		catalog.Col("dname", vector.TypeString),
	))
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 7; d++ {
		_ = dept.AppendRow(vector.NewInt64(int64(d)), vector.NewString(fmt.Sprintf("dept-%d", d)))
	}
	_ = dept.AppendRow(vector.NewInt64(100), vector.NewString("empty-dept"))

	bonus, err := cat.Create("bonus", catalog.NewSchema(
		catalog.Col("bid", vector.TypeInt64),
		catalog.Col("bdept", vector.TypeInt64),
		catalog.Col("amount", vector.TypeFloat64),
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		_ = bonus.AppendRow(
			vector.NewInt64(int64(i)),
			vector.NewInt64(int64(i%10)),
			vector.NewFloat64(float64(i)),
		)
	}
	return cat
}

func runPlan(t testing.TB, cat *catalog.Catalog, n plan.Node, workers int) *ResultSet {
	t.Helper()
	pp := mustCompile(t, n, cat)
	ex := NewExecutor(pp, Options{Workers: workers})
	res, err := ex.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestScanFilterProject(t *testing.T) {
	cat := testDB(t)
	b := plan.NewBuilder(cat)
	e := b.Scan("emp", "id", "salary")
	q := e.Filter(expr.Lt(e.Col("id"), expr.Int(5))).
		Project([]string{"id", "double_salary"},
			e.Col("id"), expr.Mul(e.Col("salary"), expr.Float(2)))
	res := runPlan(t, cat, q.Node(), 2)
	if res.NumRows() != 5 {
		t.Fatalf("rows = %d, want 5", res.NumRows())
	}
	key := res.SortedKey()
	for i := 0; i < 5; i++ {
		want := fmt.Sprintf("%d|%.6g", i, float64(i)*2)
		if !containsLine(key, want) {
			t.Errorf("missing row %q in:\n%s", want, key)
		}
	}
}

func containsLine(s, line string) bool {
	for len(s) > 0 {
		var cur string
		if i := indexByte(s, '\n'); i >= 0 {
			cur, s = s[:i], s[i+1:]
		} else {
			cur, s = s, ""
		}
		if cur == line {
			return true
		}
	}
	return false
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func TestAggregateAllFunctions(t *testing.T) {
	cat := testDB(t)
	b := plan.NewBuilder(cat)
	e := b.Scan("emp")
	q := e.Agg([]string{"dept"},
		plan.Sum(e.Col("salary"), "total"),
		plan.CountStar("n"),
		plan.Count(e.Col("name"), "named"), // NULL names are skipped
		plan.Avg(e.Col("salary"), "avg_sal"),
		plan.Min(e.Col("id"), "min_id"),
		plan.Max(e.Col("id"), "max_id"),
		plan.CountDistinct(e.Col("salary"), "distinct_sal"),
	).Sort(plan.Asc("dept"))
	res := runPlan(t, cat, q.Node(), 4)
	if res.NumRows() != 7 {
		t.Fatalf("groups = %d, want 7", res.NumRows())
	}
	// Verify group dept=0 against hand computation.
	var total float64
	var n, named, minID, maxID int64
	distinct := map[float64]bool{}
	minID = 1 << 60
	for i := 0; i < 10000; i++ {
		if i%7 != 0 {
			continue
		}
		sal := float64(i % 1000)
		total += sal
		n++
		if i%500 != 3 {
			named++
		}
		if int64(i) < minID {
			minID = int64(i)
		}
		if int64(i) > maxID {
			maxID = int64(i)
		}
		distinct[sal] = true
	}
	row := res.Row(0)
	if row[0].I != 0 {
		t.Fatalf("first group = %v", row[0])
	}
	if row[1].F != total {
		t.Errorf("sum = %v, want %v", row[1].F, total)
	}
	if row[2].I != n {
		t.Errorf("count(*) = %v, want %v", row[2].I, n)
	}
	if row[3].I != named {
		t.Errorf("count(name) = %v, want %v", row[3].I, named)
	}
	if got, want := row[4].F, total/float64(n); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("avg = %v, want %v", got, want)
	}
	if row[5].I != minID || row[6].I != maxID {
		t.Errorf("min/max = %v/%v, want %v/%v", row[5].I, row[6].I, minID, maxID)
	}
	if row[7].I != int64(len(distinct)) {
		t.Errorf("count distinct = %v, want %v", row[7].I, len(distinct))
	}
}

func TestGlobalAggregateOnEmptyInput(t *testing.T) {
	cat := testDB(t)
	b := plan.NewBuilder(cat)
	e := b.Scan("emp")
	q := e.Filter(expr.Lt(e.Col("id"), expr.Int(0))). // empty
								Agg(nil, plan.CountStar("n"), plan.Sum(e.Col("salary"), "s"))
	res := runPlan(t, cat, q.Node(), 2)
	if res.NumRows() != 1 {
		t.Fatalf("global agg must yield 1 row, got %d", res.NumRows())
	}
	row := res.Row(0)
	if row[0].I != 0 {
		t.Errorf("count = %v", row[0])
	}
	if !row[1].Null {
		t.Errorf("sum over empty must be NULL, got %v", row[1])
	}
}

func TestInnerJoin(t *testing.T) {
	cat := testDB(t)
	b := plan.NewBuilder(cat)
	e := b.Scan("emp", "id", "dept")
	d := b.Scan("dept")
	q := e.Join(d, plan.InnerJoin, []string{"dept"}, []string{"did"}).
		Agg([]string{"dname"}, plan.CountStar("n")).
		Sort(plan.Asc("dname"))
	res := runPlan(t, cat, q.Node(), 4)
	if res.NumRows() != 7 {
		t.Fatalf("joined groups = %d, want 7 (empty-dept matches nothing)", res.NumRows())
	}
	// dept-0 has ceil(10000/7) = 1429 employees.
	if row := res.Row(0); row[0].S != "dept-0" || row[1].I != 1429 {
		t.Errorf("dept-0 count = %v", row)
	}
}

func TestLeftOuterJoin(t *testing.T) {
	cat := testDB(t)
	b := plan.NewBuilder(cat)
	d := b.Scan("dept")
	e := b.Scan("emp", "id", "dept")
	// dept LEFT OUTER JOIN emp: empty-dept survives with NULL emp columns.
	q := d.Join(e, plan.LeftOuterJoin, []string{"did"}, []string{"dept"})
	res := runPlan(t, cat, q.Node(), 4)
	if res.NumRows() != 10001 {
		t.Fatalf("rows = %d, want 10000 matches + 1 null-padded", res.NumRows())
	}
	nulls := 0
	for i := int64(0); i < res.NumRows(); i++ {
		row := res.Row(i)
		if row[2].Null {
			nulls++
			if row[1].S != "empty-dept" {
				t.Errorf("unexpected null-padded row: %v", row)
			}
		}
	}
	if nulls != 1 {
		t.Errorf("null-padded rows = %d, want 1", nulls)
	}
}

func TestSemiAndAntiJoin(t *testing.T) {
	cat := testDB(t)
	b := plan.NewBuilder(cat)
	d := b.Scan("dept")
	e := b.Scan("emp", "id", "dept")
	semi := d.Join(e, plan.SemiJoin, []string{"did"}, []string{"dept"})
	res := runPlan(t, cat, semi.Node(), 3)
	if res.NumRows() != 7 {
		t.Fatalf("semi rows = %d, want 7", res.NumRows())
	}
	if res.Schema.Arity() != 2 {
		t.Error("semi join must keep left schema only")
	}
	anti := d.Join(e, plan.AntiJoin, []string{"did"}, []string{"dept"})
	res = runPlan(t, cat, anti.Node(), 3)
	if res.NumRows() != 1 || res.Row(0)[1].S != "empty-dept" {
		t.Fatalf("anti join = %v", res.Rows())
	}
}

func TestJoinExtraCondition(t *testing.T) {
	cat := testDB(t)
	b := plan.NewBuilder(cat)
	e := b.Scan("emp", "id", "dept")
	d := b.Scan("dept")
	// Join but keep only pairs where id > 9995.
	q := e.JoinExtra(d, plan.InnerJoin, []string{"dept"}, []string{"did"}, func(cr plan.ColResolver) expr.Expr {
		return expr.Gt(cr.Col("id"), expr.Int(9995))
	})
	res := runPlan(t, cat, q.Node(), 2)
	if res.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4 (ids 9996..9999)", res.NumRows())
	}
	// Semi join with extra: depts having an employee with id > 9995 (depts of 9996..9999 = 5,6,0,1).
	semi := d.JoinExtra(e, plan.SemiJoin, []string{"did"}, []string{"dept"}, func(cr plan.ColResolver) expr.Expr {
		return expr.Gt(cr.Col("id"), expr.Int(9995))
	})
	res = runPlan(t, cat, semi.Node(), 2)
	if res.NumRows() != 4 {
		t.Fatalf("semi-with-extra rows = %d, want 4", res.NumRows())
	}
}

func TestCrossJoin(t *testing.T) {
	cat := testDB(t)
	b := plan.NewBuilder(cat)
	d := b.Scan("dept")
	total := d.Agg(nil, plan.CountStar("total"))
	q := d.Cross(total).Filter(expr.Gt(expr.NamedCol(2, vector.TypeInt64, ""), expr.Int(0)))
	res := runPlan(t, cat, q.Node(), 2)
	if res.NumRows() != 8 {
		t.Fatalf("cross rows = %d, want 8", res.NumRows())
	}
	if res.Row(0)[2].I != 8 {
		t.Errorf("total column = %v", res.Row(0)[2])
	}
}

func TestSortAndTopN(t *testing.T) {
	cat := testDB(t)
	b := plan.NewBuilder(cat)
	e := b.Scan("emp", "id", "salary")
	sorted := e.Sort(plan.Desc("salary"), plan.Asc("id"))
	res := runPlan(t, cat, sorted.Node(), 4)
	if res.NumRows() != 10000 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if res.Row(0)[1].F != 999 {
		t.Errorf("top salary = %v", res.Row(0)[1])
	}
	// Stable tie-break: among salary 999, smallest id (999) first.
	if res.Row(0)[0].I != 999 {
		t.Errorf("first id = %v, want 999", res.Row(0)[0])
	}
	for i := int64(1); i < res.NumRows(); i++ {
		a, bb := res.Row(i-1), res.Row(i)
		if a[1].F < bb[1].F {
			t.Fatalf("sort violated at %d", i)
		}
		if a[1].F == bb[1].F && a[0].I > bb[0].I {
			t.Fatalf("tie-break violated at %d", i)
		}
	}

	top := e.Sort(plan.Desc("salary"), plan.Asc("id")).Limit(10)
	resTop := runPlan(t, cat, top.Node(), 4)
	if resTop.NumRows() != 10 {
		t.Fatalf("topn rows = %d", resTop.NumRows())
	}
	for i := int64(0); i < 10; i++ {
		a, bb := res.Row(i), resTop.Row(i)
		if a[0].I != bb[0].I || a[1].F != bb[1].F {
			t.Errorf("topn row %d = %v, full sort says %v", i, bb, a)
		}
	}
}

func TestStandaloneLimit(t *testing.T) {
	cat := testDB(t)
	b := plan.NewBuilder(cat)
	e := b.Scan("emp", "id")
	res := runPlan(t, cat, e.Limit(25).Node(), 4)
	if res.NumRows() != 25 {
		t.Fatalf("limit rows = %d, want 25", res.NumRows())
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	cat := testDB(t)
	builds := []func() plan.Node{
		func() plan.Node {
			b := plan.NewBuilder(cat)
			e := b.Scan("emp")
			return e.Agg([]string{"dept"}, plan.Sum(e.Col("salary"), "s"), plan.CountStar("n")).Node()
		},
		func() plan.Node {
			b := plan.NewBuilder(cat)
			e := b.Scan("emp", "id", "dept")
			d := b.Scan("dept")
			return e.Join(d, plan.InnerJoin, []string{"dept"}, []string{"did"}).
				Agg([]string{"dname"}, plan.CountStar("n")).Node()
		},
		func() plan.Node {
			b := plan.NewBuilder(cat)
			e := b.Scan("emp", "salary", "id")
			return e.Sort(plan.Desc("salary"), plan.Asc("id")).Limit(50).Node()
		},
		func() plan.Node {
			b := plan.NewBuilder(cat)
			bo := b.Scan("bonus")
			d := b.Scan("dept")
			return d.Join(bo, plan.AntiJoin, []string{"did"}, []string{"bdept"}).Node()
		},
	}
	for qi, build := range builds {
		ref := runPlan(t, cat, build(), 1).SortedKey()
		for _, w := range []int{2, 4, 8} {
			got := runPlan(t, cat, build(), w).SortedKey()
			if got != ref {
				t.Errorf("query %d: %d-worker result differs from single-worker", qi, w)
			}
		}
	}
}

func TestCompileRejectsUnknownTable(t *testing.T) {
	cat := testDB(t)
	sc := plan.NewScan("ghost", catalog.NewSchema(catalog.Col("x", vector.TypeInt64)), []int{0}, nil)
	if _, err := CompileWith(sc, cat, CompileOptions{}); err == nil {
		t.Fatal("compiling a scan of a missing table must fail")
	}
}

// TestCompileRejectsIllTypedExpressions: every expression of a plan is
// compiled to its program by CompileWith, so one that has no program — wherever
// in the plan it sits — fails there, before a morsel is read. The nodes are
// assembled by hand: the builders and constructors refuse these themselves.
func TestCompileRejectsIllTypedExpressions(t *testing.T) {
	cat := testDB(t)
	e := plan.NewBuilder(cat).Scan("emp", "id", "salary", "name")
	child := e.Node()
	notOverDouble := &expr.NotExpr{In: e.Col("salary")}
	for name, tc := range map[string]struct {
		node plan.Node
		want string
	}{
		"filter not boolean": {&plan.Filter{Child: child, Cond: e.Col("salary")}, "filter condition of type DOUBLE"},
		"filter":             {&plan.Filter{Child: child, Cond: notOverDouble}, "NOT over DOUBLE"},
		"project":            {plan.NewProject(child, []expr.Expr{notOverDouble}, []string{"x"}), "NOT over DOUBLE"},
		"group key":          {plan.NewAggregate(child, []expr.Expr{notOverDouble}, []string{"g"}, nil), "NOT over DOUBLE"},
		"aggregate argument": {plan.NewAggregate(child, nil, nil, []plan.AggSpec{plan.Count(notOverDouble, "n")}), "NOT over DOUBLE"},
		"sort key":           {&plan.Sort{Child: child, Keys: []plan.SortKey{{Expr: notOverDouble}}}, "NOT over DOUBLE"},
		"top-n key":          {&plan.Limit{Child: &plan.Sort{Child: child, Keys: []plan.SortKey{{Expr: notOverDouble}}}, N: 3}, "NOT over DOUBLE"},
		"join build key":     {plan.NewJoin(plan.InnerJoin, child, child, []expr.Expr{e.Col("id")}, []expr.Expr{notOverDouble}, nil), "NOT over DOUBLE"},
		"join probe key":     {plan.NewJoin(plan.InnerJoin, child, child, []expr.Expr{notOverDouble}, []expr.Expr{e.Col("id")}, nil), "NOT over DOUBLE"},
		"join residual":      {plan.NewJoin(plan.InnerJoin, child, child, []expr.Expr{e.Col("id")}, []expr.Expr{e.Col("id")}, e.Col("salary")), "filter condition of type DOUBLE"},
	} {
		if _, err := CompileWith(tc.node, cat, CompileOptions{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CompileWith = %v, want an error containing %q", name, err, tc.want)
		}
	}
}

func TestPipelineStructure(t *testing.T) {
	cat := testDB(t)
	b := plan.NewBuilder(cat)
	e := b.Scan("emp", "id", "dept")
	d := b.Scan("dept")
	q := e.Join(d, plan.InnerJoin, []string{"dept"}, []string{"did"}).
		Agg([]string{"dname"}, plan.CountStar("n")).
		Sort(plan.Desc("n")).
		Limit(3)
	pp := mustCompile(t, q.Node(), cat)
	// build(dept) -> probe+agg -> topn-source... expected pipelines:
	// 0: scan(dept)->build, 1: scan(emp)->probe->aggregate, 2: scan(agg)->topn, 3: scan(topn)->result
	if len(pp.Pipelines) != 4 {
		for _, p := range pp.Pipelines {
			t.Logf("pipeline %d: %s deps=%v", p.ID, p.Label, p.Deps)
		}
		t.Fatalf("pipelines = %d, want 4", len(pp.Pipelines))
	}
	for _, p := range pp.Pipelines {
		for _, dep := range p.Deps {
			if dep >= p.ID {
				t.Errorf("pipeline %d depends on later pipeline %d", p.ID, dep)
			}
		}
	}
}
