package plan

import (
	"strings"
	"testing"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/vector"
)

func TestJoinTypeNames(t *testing.T) {
	want := map[JoinType]string{
		InnerJoin: "INNER", LeftOuterJoin: "LEFT_OUTER", SemiJoin: "SEMI",
		AntiJoin: "ANTI", CrossJoin: "CROSS", RightSemiJoin: "RIGHT_SEMI", RightAntiJoin: "RIGHT_ANTI",
	}
	for jt, name := range want {
		if jt.String() != name {
			t.Errorf("%d.String() = %q, want %q", jt, jt.String(), name)
		}
	}
}

func TestAggFuncResultTypes(t *testing.T) {
	cases := []struct {
		f    AggFunc
		arg  vector.Type
		want vector.Type
	}{
		{AggSum, vector.TypeFloat64, vector.TypeFloat64},
		{AggSum, vector.TypeInt64, vector.TypeInt64},
		{AggCount, vector.TypeString, vector.TypeInt64},
		{AggCountStar, vector.TypeInvalid, vector.TypeInt64},
		{AggAvg, vector.TypeInt64, vector.TypeFloat64},
		{AggMin, vector.TypeDate, vector.TypeDate},
		{AggMax, vector.TypeString, vector.TypeString},
	}
	for _, tc := range cases {
		if got := tc.f.ResultType(tc.arg); got != tc.want {
			t.Errorf("%v.ResultType(%v) = %v, want %v", tc.f, tc.arg, got, tc.want)
		}
	}
	spec := AggSpec{Func: AggCountStar, Name: "n"}
	if spec.ResultType() != vector.TypeInt64 {
		t.Error("count(*) result type")
	}
	if !strings.Contains(spec.String(), "count_star") {
		t.Errorf("spec string = %q", spec.String())
	}
	d := AggSpec{Func: AggCount, Arg: expr.NamedCol(0, vector.TypeInt64, ""), Distinct: true, Name: "d"}
	if !strings.Contains(d.String(), "distinct") {
		t.Errorf("distinct spec string = %q", d.String())
	}
}

func TestNodeStringsCoverAllTypes(t *testing.T) {
	cat := testCatalog(t)
	b := NewBuilder(cat)
	o := b.Scan("orders")
	c := b.Scan("customer")

	nodes := []Node{
		o.Node(),
		o.Filter(expr.Gt(expr.NamedCol(0, vector.TypeInt64, ""), expr.Int(0))).
			Agg([]string{"o_custkey"}, CountStar("n")).Node(), // filter folded into scan
		o.Keep("o_orderkey").Node(),
		o.Rename("x.").Node(),
		o.Join(c, LeftOuterJoin, []string{"o_custkey"}, []string{"c_custkey"}).Node(),
		o.Cross(c).Node(),
		o.Sort(Desc("o_totalprice")).Node(),
		o.Limit(5).Node(),
	}
	for _, n := range nodes {
		if strings.TrimSpace(n.String()) == "" {
			t.Errorf("%T prints empty", n)
		}
		if Tree(n) == "" {
			t.Errorf("%T tree empty", n)
		}
		if n.Schema() == nil {
			t.Errorf("%T schema nil", n)
		}
	}
}

func TestSortSpecHelpers(t *testing.T) {
	cat := testCatalog(t)
	b := NewBuilder(cat)
	o := b.Scan("orders")
	e := expr.Add(o.Col("o_orderkey"), expr.Int(1))
	s := o.Sort(SortSpec{Expr: e}, SortSpec{Expr: e, Descending: true})
	keys := s.Node().(*Sort).Keys
	if keys[0].Desc || !keys[1].Desc {
		t.Error("expr sort key directions wrong")
	}
	if !strings.Contains(keys[0].String(), "asc") || !strings.Contains(keys[1].String(), "desc") {
		t.Error("sort key strings wrong")
	}
}

func TestNewJoinPanicsOnKeyMismatch(t *testing.T) {
	cat := testCatalog(t)
	b := NewBuilder(cat)
	o := b.Scan("orders")
	c := b.Scan("customer")
	defer func() {
		if recover() == nil {
			t.Fatal("key-count mismatch must panic")
		}
	}()
	NewJoin(InnerJoin, o.Node(), c.Node(),
		[]expr.Expr{o.Col("o_custkey")}, nil, nil)
}

func TestCoreOperatorSkipsGlobalAggregate(t *testing.T) {
	cat := testCatalog(t)
	b := NewBuilder(cat)
	o := b.Scan("orders")
	c := b.Scan("customer")
	// Global aggregate over a join: the core operator is the join beneath.
	q := o.Join(c, InnerJoin, []string{"o_custkey"}, []string{"c_custkey"}).
		Agg(nil, CountStar("n"))
	core := CoreOperator(q.Node())
	if _, ok := core.(*Join); !ok {
		t.Fatalf("core over global agg = %T, want *Join", core)
	}
	// A plan with only a global aggregate has no core operator.
	g := o.Agg(nil, CountStar("n"))
	if CoreOperator(g.Node()) != nil {
		t.Error("global-agg-only plan must have no core operator")
	}
	// A grouped aggregate is a core operator.
	ga := o.Agg([]string{"o_custkey"}, CountStar("n"))
	if _, ok := CoreOperator(ga.Node()).(*Aggregate); !ok {
		t.Error("grouped aggregate must be a core operator")
	}
	_ = catalog.Column{}
}
