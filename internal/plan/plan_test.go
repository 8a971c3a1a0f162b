package plan

import (
	"strings"
	"testing"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/vector"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	orders, err := cat.Create("orders", catalog.NewSchema(
		catalog.Col("o_orderkey", vector.TypeInt64),
		catalog.Col("o_custkey", vector.TypeInt64),
		catalog.Col("o_totalprice", vector.TypeFloat64),
		catalog.Col("o_orderdate", vector.TypeDate),
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		_ = orders.AppendRow(
			vector.NewInt64(int64(i)),
			vector.NewInt64(int64(i%100)),
			vector.NewFloat64(float64(i)*10),
			vector.NewDate(int64(9000+i%365)),
		)
	}
	cust, err := cat.Create("customer", catalog.NewSchema(
		catalog.Col("c_custkey", vector.TypeInt64),
		catalog.Col("c_name", vector.TypeString),
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		_ = cust.AppendRow(vector.NewInt64(int64(i)), vector.NewString("cust"))
	}
	return cat
}

func TestBuilderScanAndSchema(t *testing.T) {
	b := NewBuilder(testCatalog(t))
	r := b.Scan("orders", "o_orderkey", "o_totalprice")
	s := r.Schema()
	if s.Arity() != 2 || s.Columns[0].Name != "o_orderkey" || s.Columns[1].Type != vector.TypeFloat64 {
		t.Fatalf("schema = %s", s)
	}
	all := b.Scan("orders")
	if all.Schema().Arity() != 4 {
		t.Error("empty projection must take all columns")
	}
}

func TestBuilderFilterPushdownIntoScan(t *testing.T) {
	b := NewBuilder(testCatalog(t))
	r := b.Scan("orders").Filter(expr.Gt(b.Scan("orders").Col("o_totalprice"), expr.Float(100)))
	sc, ok := r.Node().(*Scan)
	if !ok {
		t.Fatalf("filter over scan should fold into scan, got %T", r.Node())
	}
	if sc.Filter == nil {
		t.Fatal("scan filter not set")
	}
	// A second filter merges with AND.
	r2 := r.Filter(expr.Lt(r.Col("o_orderkey"), expr.Int(10)))
	sc2 := r2.Node().(*Scan)
	if !strings.Contains(sc2.Filter.String(), "AND") {
		t.Errorf("merged filter = %s", sc2.Filter)
	}
	// A filter over a non-scan stays a Filter node.
	agg := r.Agg([]string{"o_custkey"}, CountStar("n"))
	f := agg.Filter(expr.Gt(agg.Col("n"), expr.Int(1)))
	if _, ok := f.Node().(*Filter); !ok {
		t.Errorf("filter over aggregate should be a Filter node, got %T", f.Node())
	}
}

func TestBuilderJoinSchemas(t *testing.T) {
	b := NewBuilder(testCatalog(t))
	o := b.Scan("orders")
	c := b.Scan("customer")
	j := o.Join(c, InnerJoin, []string{"o_custkey"}, []string{"c_custkey"})
	if j.Schema().Arity() != 6 {
		t.Errorf("inner join schema = %s", j.Schema())
	}
	semi := o.Join(c, SemiJoin, []string{"o_custkey"}, []string{"c_custkey"})
	if semi.Schema().Arity() != 4 {
		t.Errorf("semi join schema must be left-only, got %s", semi.Schema())
	}
	anti := o.Join(c, AntiJoin, []string{"o_custkey"}, []string{"c_custkey"})
	if anti.Schema().Arity() != 4 {
		t.Error("anti join schema must be left-only")
	}
	for _, jt := range []JoinType{RightSemiJoin, RightAntiJoin} {
		if rj := o.Join(c, jt, []string{"o_custkey"}, []string{"c_custkey"}); rj.Schema().String() != c.Schema().String() {
			t.Errorf("%v join schema must be the right input's, got %s", jt, rj.Schema())
		}
	}
	cross := o.Cross(c)
	if cross.Schema().Arity() != 6 {
		t.Error("cross join schema must concatenate")
	}
	withExtra := o.JoinExtra(c, InnerJoin, []string{"o_custkey"}, []string{"c_custkey"}, func(cr ColResolver) expr.Expr {
		return expr.Ne(cr.Col("o_orderkey"), cr.Col("c_custkey"))
	})
	if withExtra.Node().(*Join).Extra == nil {
		t.Error("extra condition lost")
	}
}

func TestBuilderAggSortLimit(t *testing.T) {
	b := NewBuilder(testCatalog(t))
	r := b.Scan("orders").
		Agg([]string{"o_custkey"},
			Sum(expr.NamedCol(2, vector.TypeFloat64, ""), "revenue"),
			CountStar("n"),
			Avg(expr.NamedCol(2, vector.TypeFloat64, ""), "avg_price"),
			Min(expr.NamedCol(3, vector.TypeDate, ""), "first_date"),
			Max(expr.NamedCol(3, vector.TypeDate, ""), "last_date"),
			CountDistinct(expr.NamedCol(0, vector.TypeInt64, ""), "uniq"),
		).
		Sort(Desc("revenue"), Asc("o_custkey")).
		Limit(10)
	s := r.Schema()
	want := []string{"o_custkey", "revenue", "n", "avg_price", "first_date", "last_date", "uniq"}
	if s.Arity() != len(want) {
		t.Fatalf("schema = %s", s)
	}
	for i, n := range want {
		if s.Columns[i].Name != n {
			t.Errorf("col %d = %s, want %s", i, s.Columns[i].Name, n)
		}
	}
	if s.Columns[1].Type != vector.TypeFloat64 || s.Columns[2].Type != vector.TypeInt64 ||
		s.Columns[3].Type != vector.TypeFloat64 || s.Columns[4].Type != vector.TypeDate ||
		s.Columns[6].Type != vector.TypeInt64 {
		t.Errorf("agg result types wrong: %s", s)
	}
	if _, ok := r.Node().(*Limit); !ok {
		t.Error("top is not Limit")
	}
}

func TestBuilderRename(t *testing.T) {
	b := NewBuilder(testCatalog(t))
	o := b.Scan("orders", "o_orderkey").Rename("x.")
	if o.Schema().Columns[0].Name != "x.o_orderkey" {
		t.Errorf("rename gave %s", o.Schema())
	}
}

func TestBuilderPanicsOnBadNames(t *testing.T) {
	b := NewBuilder(testCatalog(t))
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("bad table", func() { b.Scan("nope") })
	mustPanic("bad scan col", func() { b.Scan("orders", "nope") })
	mustPanic("bad col ref", func() { b.Scan("orders").Col("nope") })
}

func TestEstimateRows(t *testing.T) {
	cat := testCatalog(t)
	b := NewBuilder(cat)
	o := b.Scan("orders")
	if got := EstimateRows(o.Node(), cat); got != 1000 {
		t.Errorf("scan estimate = %v", got)
	}
	f := o.Filter(expr.Eq(o.Col("o_custkey"), expr.Int(5)))
	if got := EstimateRows(f.Node(), cat); got != 100 {
		t.Errorf("eq filter estimate = %v, want 100", got)
	}
	c := b.Scan("customer")
	j := o.Join(c, InnerJoin, []string{"o_custkey"}, []string{"c_custkey"})
	if got := EstimateRows(j.Node(), cat); got != 1000*100*selJoin {
		t.Errorf("join estimate = %v", got)
	}
	// Join estimates are multiplicative and unbounded: a self-join chain blows up.
	j2 := j.JoinExtra(c.Rename("c2."), InnerJoin, []string{"o_custkey"}, []string{"c2.c_custkey"}, nil)
	if got := EstimateRows(j2.Node(), cat); got <= EstimateRows(j.Node(), cat) {
		t.Errorf("chained join estimate must grow, got %v", got)
	}
	g := o.Agg(nil)
	if got := EstimateRows(g.Node(), cat); got != 1 {
		t.Errorf("global agg estimate = %v", got)
	}
	lim := o.Limit(7)
	if got := EstimateRows(lim.Node(), cat); got != 7 {
		t.Errorf("limit estimate = %v", got)
	}
	semi := o.Join(c, SemiJoin, []string{"o_custkey"}, []string{"c_custkey"})
	if got := EstimateRows(semi.Node(), cat); got != 500 {
		t.Errorf("semi estimate = %v", got)
	}
	rsemi := o.Join(c, RightSemiJoin, []string{"o_custkey"}, []string{"c_custkey"})
	if got := EstimateRows(rsemi.Node(), cat); got != 50 {
		t.Errorf("right-semi estimate = %v, want half the right input", got)
	}
}

func TestSelectivityShapes(t *testing.T) {
	c0 := expr.NamedCol(0, vector.TypeInt64, "")
	if Selectivity(expr.Eq(c0, expr.Int(1))) != selEq {
		t.Error("eq selectivity")
	}
	if Selectivity(expr.Gt(c0, expr.Int(1))) != selRange {
		t.Error("range selectivity")
	}
	and := expr.And(expr.Eq(c0, expr.Int(1)), expr.Gt(c0, expr.Int(0)))
	if got := Selectivity(and); got != selEq*selRange {
		t.Errorf("and selectivity = %v", got)
	}
	or := expr.Or(expr.Eq(c0, expr.Int(1)), expr.Eq(c0, expr.Int(2)))
	if got := Selectivity(or); got != 2*selEq {
		t.Errorf("or selectivity = %v", got)
	}
	s := expr.NamedCol(0, vector.TypeString, "")
	if Selectivity(expr.Like(s, "%x%")) != selLike {
		t.Error("like selectivity")
	}
	if Selectivity(expr.InStrings(s, "a", "b")) != selIn {
		t.Error("in selectivity")
	}
	if got := Selectivity(expr.Not(expr.Eq(c0, expr.Int(1)))); got != 1-selEq {
		t.Errorf("not selectivity = %v", got)
	}
}

func TestCoreOperatorAndCounts(t *testing.T) {
	cat := testCatalog(t)
	b := NewBuilder(cat)
	o := b.Scan("orders")
	c := b.Scan("customer")
	q := o.Join(c, InnerJoin, []string{"o_custkey"}, []string{"c_custkey"}).
		Agg([]string{"c_name"}, CountStar("n")).
		Sort(Desc("n")).
		Limit(5)
	core := CoreOperator(q.Node())
	if _, ok := core.(*Aggregate); !ok {
		t.Errorf("core operator closest to root should be the aggregate, got %T", core)
	}
	counts := CountOperators(q.Node())
	if counts.Joins != 1 || counts.Aggregates != 1 || counts.Sorts != 1 || counts.Limits != 1 || counts.Scans != 2 || counts.Tables != 2 {
		t.Errorf("counts = %+v", counts)
	}
	if EstimateWidth(q.Node()) <= 0 {
		t.Error("width must be positive")
	}
	semis := o.Join(c, SemiJoin, []string{"o_custkey"}, []string{"c_custkey"}).
		Join(c, RightAntiJoin, []string{"o_custkey"}, []string{"c_custkey"})
	if counts := CountOperators(semis.Node()); counts.SemiAnti != 2 || counts.Joins != 0 {
		t.Errorf("semi and right-anti counts = %+v, want both under SemiAnti", counts)
	}
}

func TestFingerprintStability(t *testing.T) {
	cat := testCatalog(t)
	build := func() Node {
		b := NewBuilder(cat)
		o := b.Scan("orders")
		return o.Filter(expr.Gt(o.Col("o_totalprice"), expr.Float(10))).
			Agg([]string{"o_custkey"}, CountStar("n")).Node()
	}
	if Fingerprint(build()) != Fingerprint(build()) {
		t.Error("identical plans must fingerprint identically")
	}
	b := NewBuilder(cat)
	o := b.Scan("orders")
	other := o.Filter(expr.Gt(o.Col("o_totalprice"), expr.Float(11))).
		Agg([]string{"o_custkey"}, CountStar("n")).Node()
	if Fingerprint(build()) == Fingerprint(other) {
		t.Error("different plans should fingerprint differently")
	}
	c := b.Scan("customer")
	for _, pair := range [][2]JoinType{{SemiJoin, RightSemiJoin}, {AntiJoin, RightAntiJoin}} {
		l := o.Join(c, pair[0], []string{"o_custkey"}, []string{"c_custkey"}).Node()
		r := o.Join(c, pair[1], []string{"o_custkey"}, []string{"c_custkey"}).Node()
		if Fingerprint(l) == Fingerprint(r) {
			t.Errorf("%v and %v joins fingerprint alike", pair[0], pair[1])
		}
	}
}

func TestTreeRendering(t *testing.T) {
	cat := testCatalog(t)
	b := NewBuilder(cat)
	o := b.Scan("orders")
	c := b.Scan("customer")
	q := o.Join(c, InnerJoin, []string{"o_custkey"}, []string{"c_custkey"}).Limit(1)
	tree := Tree(q.Node())
	for _, want := range []string{"Limit", "HashJoin", "Scan(orders", "Scan(customer"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
	n := 0
	Walk(q.Node(), func(Node) { n++ })
	if n != 4 {
		t.Errorf("walk visited %d nodes, want 4", n)
	}
}
