package tpch

import (
	"fmt"

	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

// Query is one of the 22 TPC-H benchmark queries expressed as a logical
// plan builder. Q11's HAVING fraction is scale-dependent, so builders take
// the scale factor.
type Query struct {
	ID          int
	Name        string
	Description string
	Build       func(b *plan.Builder, sf float64) plan.Node
}

// All returns the 22 queries in order.
func All() []Query {
	return []Query{
		{1, "Q1", "pricing summary report", q1},
		{2, "Q2", "minimum cost supplier", q2},
		{3, "Q3", "shipping priority", q3},
		{4, "Q4", "order priority checking", q4},
		{5, "Q5", "local supplier volume", q5},
		{6, "Q6", "forecasting revenue change", q6},
		{7, "Q7", "volume shipping", q7},
		{8, "Q8", "national market share", q8},
		{9, "Q9", "product type profit measure", q9},
		{10, "Q10", "returned item reporting", q10},
		{11, "Q11", "important stock identification", q11},
		{12, "Q12", "shipping modes and order priority", q12},
		{13, "Q13", "customer distribution", q13},
		{14, "Q14", "promotion effect", q14},
		{15, "Q15", "top supplier", q15},
		{16, "Q16", "parts/supplier relationship", q16},
		{17, "Q17", "small-quantity-order revenue", q17},
		{18, "Q18", "large volume customer", q18},
		{19, "Q19", "discounted revenue", q19},
		{20, "Q20", "potential part promotion", q20},
		{21, "Q21", "suppliers who kept orders waiting", q21},
		{22, "Q22", "global sales opportunity", q22},
	}
}

// Get returns query 1..22.
func Get(id int) (Query, error) {
	if id < 1 || id > 22 {
		return Query{}, fmt.Errorf("tpch: no query Q%d", id)
	}
	return All()[id-1], nil
}

// revenue returns l_extendedprice * (1 - l_discount) over a relation that
// exposes both columns.
func revenue(r *plan.Rel) expr.Expr {
	return expr.Mul(r.Col("l_extendedprice"), expr.Sub(expr.Float(1), r.Col("l_discount")))
}

func q1(b *plan.Builder, _ float64) plan.Node {
	l := b.Scan("lineitem", "l_returnflag", "l_linestatus", "l_quantity",
		"l_extendedprice", "l_discount", "l_tax", "l_shipdate")
	f := l.Filter(expr.Le(l.Col("l_shipdate"), expr.Date("1998-09-02")))
	disc := revenue(f)
	charge := expr.Mul(disc, expr.Add(expr.Float(1), f.Col("l_tax")))
	return f.Agg([]string{"l_returnflag", "l_linestatus"},
		plan.Sum(f.Col("l_quantity"), "sum_qty"),
		plan.Sum(f.Col("l_extendedprice"), "sum_base_price"),
		plan.Sum(disc, "sum_disc_price"),
		plan.Sum(charge, "sum_charge"),
		plan.Avg(f.Col("l_quantity"), "avg_qty"),
		plan.Avg(f.Col("l_extendedprice"), "avg_price"),
		plan.Avg(f.Col("l_discount"), "avg_disc"),
		plan.CountStar("count_order"),
	).Sort(plan.Asc("l_returnflag"), plan.Asc("l_linestatus")).Node()
}

// suppliersInRegion joins supplier with nation and the named region.
func suppliersInRegion(b *plan.Builder, regionName string) *plan.Rel {
	r := b.Scan("region", "r_regionkey", "r_name")
	r = r.Filter(expr.Eq(r.Col("r_name"), expr.Str(regionName)))
	n := b.Scan("nation", "n_nationkey", "n_name", "n_regionkey")
	nr := n.Join(r, plan.InnerJoin, []string{"n_regionkey"}, []string{"r_regionkey"})
	s := b.Scan("supplier", "s_suppkey", "s_name", "s_address", "s_nationkey", "s_phone", "s_acctbal", "s_comment")
	return s.Join(nr, plan.InnerJoin, []string{"s_nationkey"}, []string{"n_nationkey"})
}

func q2(b *plan.Builder, _ float64) plan.Node {
	sn := suppliersInRegion(b, "EUROPE")
	ps := b.Scan("partsupp", "ps_partkey", "ps_suppkey", "ps_supplycost")
	pssn := ps.Join(sn, plan.InnerJoin, []string{"ps_suppkey"}, []string{"s_suppkey"})
	minCost := pssn.Agg([]string{"ps_partkey"}, plan.Min(pssn.Col("ps_supplycost"), "min_cost")).
		Rename("m.")

	p := b.Scan("part", "p_partkey", "p_mfgr", "p_size", "p_type")
	p = p.Filter(expr.And(
		expr.Eq(p.Col("p_size"), expr.Int(15)),
		expr.Like(p.Col("p_type"), "%BRASS"),
	))
	j := p.Join(pssn, plan.InnerJoin, []string{"p_partkey"}, []string{"ps_partkey"})
	j = j.Join(minCost, plan.InnerJoin,
		[]string{"p_partkey", "ps_supplycost"}, []string{"m.ps_partkey", "m.min_cost"})
	return j.Keep("s_acctbal", "s_name", "n_name", "p_partkey", "p_mfgr", "s_address", "s_phone", "s_comment").
		Sort(plan.Desc("s_acctbal"), plan.Asc("n_name"), plan.Asc("s_name"), plan.Asc("p_partkey")).
		Limit(100).Node()
}

func q3(b *plan.Builder, _ float64) plan.Node {
	c := b.Scan("customer", "c_custkey", "c_mktsegment")
	c = c.Filter(expr.Eq(c.Col("c_mktsegment"), expr.Str("BUILDING")))
	o := b.Scan("orders", "o_orderkey", "o_custkey", "o_orderdate", "o_shippriority")
	o = o.Filter(expr.Lt(o.Col("o_orderdate"), expr.Date("1995-03-15")))
	l := b.Scan("lineitem", "l_orderkey", "l_extendedprice", "l_discount", "l_shipdate")
	l = l.Filter(expr.Gt(l.Col("l_shipdate"), expr.Date("1995-03-15")))

	oc := o.Join(c, plan.InnerJoin, []string{"o_custkey"}, []string{"c_custkey"})
	loc := l.Join(oc, plan.InnerJoin, []string{"l_orderkey"}, []string{"o_orderkey"})
	return loc.Agg([]string{"l_orderkey", "o_orderdate", "o_shippriority"},
		plan.Sum(revenue(loc), "revenue"),
	).Sort(plan.Desc("revenue"), plan.Asc("o_orderdate")).Limit(10).Node()
}

func q4(b *plan.Builder, _ float64) plan.Node {
	o := b.Scan("orders", "o_orderkey", "o_orderdate", "o_orderpriority")
	o = o.Filter(expr.And(
		expr.Ge(o.Col("o_orderdate"), expr.Date("1993-07-01")),
		expr.Lt(o.Col("o_orderdate"), expr.Date("1993-10-01")),
	))
	l := b.Scan("lineitem", "l_orderkey", "l_commitdate", "l_receiptdate")
	l = l.Filter(expr.Lt(l.Col("l_commitdate"), l.Col("l_receiptdate")))
	// EXISTS over the late lineitems: the quarter's orders are the build
	// side, a few thousand rows, and the late lineitems mark them.
	return l.Join(o, plan.RightSemiJoin, []string{"l_orderkey"}, []string{"o_orderkey"}).
		Agg([]string{"o_orderpriority"}, plan.CountStar("order_count")).
		Sort(plan.Asc("o_orderpriority")).Node()
}

func q5(b *plan.Builder, _ float64) plan.Node {
	sn := suppliersInRegion(b, "ASIA")
	c := b.Scan("customer", "c_custkey", "c_nationkey")
	o := b.Scan("orders", "o_orderkey", "o_custkey", "o_orderdate")
	o = o.Filter(expr.And(
		expr.Ge(o.Col("o_orderdate"), expr.Date("1994-01-01")),
		expr.Lt(o.Col("o_orderdate"), expr.Date("1995-01-01")),
	))
	oc := o.Join(c, plan.InnerJoin, []string{"o_custkey"}, []string{"c_custkey"})
	l := b.Scan("lineitem", "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount")
	lo := l.Join(oc, plan.InnerJoin, []string{"l_orderkey"}, []string{"o_orderkey"})
	// Local suppliers only: supplier nation must equal customer nation.
	j := lo.Join(sn, plan.InnerJoin,
		[]string{"l_suppkey", "c_nationkey"}, []string{"s_suppkey", "s_nationkey"})
	return j.Agg([]string{"n_name"}, plan.Sum(revenue(j), "revenue")).
		Sort(plan.Desc("revenue")).Node()
}

func q6(b *plan.Builder, _ float64) plan.Node {
	l := b.Scan("lineitem", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate")
	l = l.Filter(expr.And(
		expr.Ge(l.Col("l_shipdate"), expr.Date("1994-01-01")),
		expr.Lt(l.Col("l_shipdate"), expr.Date("1995-01-01")),
		expr.Between(l.Col("l_discount"), expr.Float(0.05), expr.Float(0.07)),
		expr.Lt(l.Col("l_quantity"), expr.Float(24)),
	))
	return l.Agg(nil,
		plan.Sum(expr.Mul(l.Col("l_extendedprice"), l.Col("l_discount")), "revenue"),
	).Node()
}

func q7(b *plan.Builder, _ float64) plan.Node {
	n1 := b.Scan("nation", "n_nationkey", "n_name")
	s := b.Scan("supplier", "s_suppkey", "s_nationkey")
	sn := s.Join(n1, plan.InnerJoin, []string{"s_nationkey"}, []string{"n_nationkey"})
	n2 := b.Scan("nation", "n_nationkey", "n_name").Rename("c.")
	c := b.Scan("customer", "c_custkey", "c_nationkey")
	cn := c.Join(n2, plan.InnerJoin, []string{"c_nationkey"}, []string{"c.n_nationkey"})
	o := b.Scan("orders", "o_orderkey", "o_custkey")
	oc := o.Join(cn, plan.InnerJoin, []string{"o_custkey"}, []string{"c_custkey"})
	l := b.Scan("lineitem", "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate")
	l = l.Filter(expr.Between(l.Col("l_shipdate"), expr.Date("1995-01-01"), expr.Date("1996-12-31")))
	j := l.Join(oc, plan.InnerJoin, []string{"l_orderkey"}, []string{"o_orderkey"})
	j = j.Join(sn, plan.InnerJoin, []string{"l_suppkey"}, []string{"s_suppkey"})
	j = j.Filter(expr.Or(
		expr.And(expr.Eq(j.Col("n_name"), expr.Str("FRANCE")), expr.Eq(j.Col("c.n_name"), expr.Str("GERMANY"))),
		expr.And(expr.Eq(j.Col("n_name"), expr.Str("GERMANY")), expr.Eq(j.Col("c.n_name"), expr.Str("FRANCE"))),
	))
	proj := j.Project(
		[]string{"supp_nation", "cust_nation", "l_year", "volume"},
		j.Col("n_name"), j.Col("c.n_name"),
		expr.ExtractYear(j.Col("l_shipdate")), revenue(j),
	)
	return proj.Agg([]string{"supp_nation", "cust_nation", "l_year"},
		plan.Sum(proj.Col("volume"), "revenue"),
	).Sort(plan.Asc("supp_nation"), plan.Asc("cust_nation"), plan.Asc("l_year")).Node()
}

func q8(b *plan.Builder, _ float64) plan.Node {
	p := b.Scan("part", "p_partkey", "p_type")
	p = p.Filter(expr.Eq(p.Col("p_type"), expr.Str("ECONOMY ANODIZED STEEL")))
	l := b.Scan("lineitem", "l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount")
	lp := l.Join(p, plan.InnerJoin, []string{"l_partkey"}, []string{"p_partkey"})

	s := b.Scan("supplier", "s_suppkey", "s_nationkey")
	n2 := b.Scan("nation", "n_nationkey", "n_name").Rename("s.")
	sn := s.Join(n2, plan.InnerJoin, []string{"s_nationkey"}, []string{"s.n_nationkey"})
	lps := lp.Join(sn, plan.InnerJoin, []string{"l_suppkey"}, []string{"s_suppkey"})

	// The (part ⋈ lineitem ⋈ supplier) intermediate is the smaller estimated
	// side, so it is the hash-build side of the join with orders — the
	// build-side choice DuckDB's optimizer makes, and the reason the paper's
	// Fig. 8 flags Q8 as retaining an entire (SF-scaling) hash table when
	// suspended mid-pipeline.
	o := b.Scan("orders", "o_orderkey", "o_custkey", "o_orderdate")
	o = o.Filter(expr.Between(o.Col("o_orderdate"), expr.Date("1995-01-01"), expr.Date("1996-12-31")))
	j := o.Join(lps, plan.InnerJoin, []string{"o_orderkey"}, []string{"l_orderkey"})

	r := b.Scan("region", "r_regionkey", "r_name")
	r = r.Filter(expr.Eq(r.Col("r_name"), expr.Str("AMERICA")))
	n1 := b.Scan("nation", "n_nationkey", "n_regionkey")
	nr := n1.Join(r, plan.InnerJoin, []string{"n_regionkey"}, []string{"r_regionkey"})
	c := b.Scan("customer", "c_custkey", "c_nationkey")
	cn := c.Join(nr, plan.InnerJoin, []string{"c_nationkey"}, []string{"n_nationkey"})
	j = j.Join(cn, plan.InnerJoin, []string{"o_custkey"}, []string{"c_custkey"})

	vol := revenue(j)
	proj := j.Project(
		[]string{"o_year", "volume", "nation"},
		expr.ExtractYear(j.Col("o_orderdate")), vol, j.Col("s.n_name"),
	)
	agg := proj.Agg([]string{"o_year"},
		plan.Sum(expr.When(
			expr.Eq(proj.Col("nation"), expr.Str("BRAZIL")),
			proj.Col("volume"), expr.Float(0)), "brazil_volume"),
		plan.Sum(proj.Col("volume"), "total_volume"),
	)
	return agg.Project(
		[]string{"o_year", "mkt_share"},
		agg.Col("o_year"),
		expr.Div(agg.Col("brazil_volume"), agg.Col("total_volume")),
	).Sort(plan.Asc("o_year")).Node()
}

func q9(b *plan.Builder, _ float64) plan.Node {
	p := b.Scan("part", "p_partkey", "p_name")
	p = p.Filter(expr.Like(p.Col("p_name"), "%green%"))
	l := b.Scan("lineitem", "l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice", "l_discount")
	lp := l.Join(p, plan.InnerJoin, []string{"l_partkey"}, []string{"p_partkey"})

	s := b.Scan("supplier", "s_suppkey", "s_nationkey")
	n := b.Scan("nation", "n_nationkey", "n_name")
	sn := s.Join(n, plan.InnerJoin, []string{"s_nationkey"}, []string{"n_nationkey"})
	j := lp.Join(sn, plan.InnerJoin, []string{"l_suppkey"}, []string{"s_suppkey"})

	ps := b.Scan("partsupp", "ps_partkey", "ps_suppkey", "ps_supplycost")
	j = j.Join(ps, plan.InnerJoin, []string{"l_suppkey", "l_partkey"}, []string{"ps_suppkey", "ps_partkey"})

	// The filtered lineitem chain is the smaller estimated side and becomes
	// the build of the join with orders (DuckDB's choice; see Fig. 8).
	o := b.Scan("orders", "o_orderkey", "o_orderdate")
	j = o.Join(j, plan.InnerJoin, []string{"o_orderkey"}, []string{"l_orderkey"})

	amount := expr.Sub(revenue(j),
		expr.Mul(j.Col("ps_supplycost"), j.Col("l_quantity")))
	proj := j.Project(
		[]string{"nation", "o_year", "amount"},
		j.Col("n_name"), expr.ExtractYear(j.Col("o_orderdate")), amount,
	)
	return proj.Agg([]string{"nation", "o_year"}, plan.Sum(proj.Col("amount"), "sum_profit")).
		Sort(plan.Asc("nation"), plan.Desc("o_year")).Node()
}

func q10(b *plan.Builder, _ float64) plan.Node {
	o := b.Scan("orders", "o_orderkey", "o_custkey", "o_orderdate")
	o = o.Filter(expr.And(
		expr.Ge(o.Col("o_orderdate"), expr.Date("1993-10-01")),
		expr.Lt(o.Col("o_orderdate"), expr.Date("1994-01-01")),
	))
	l := b.Scan("lineitem", "l_orderkey", "l_extendedprice", "l_discount", "l_returnflag")
	l = l.Filter(expr.Eq(l.Col("l_returnflag"), expr.Str("R")))
	lo := l.Join(o, plan.InnerJoin, []string{"l_orderkey"}, []string{"o_orderkey"})
	c := b.Scan("customer", "c_custkey", "c_name", "c_acctbal", "c_phone", "c_nationkey", "c_address", "c_comment")
	loc := lo.Join(c, plan.InnerJoin, []string{"o_custkey"}, []string{"c_custkey"})
	n := b.Scan("nation", "n_nationkey", "n_name")
	j := loc.Join(n, plan.InnerJoin, []string{"c_nationkey"}, []string{"n_nationkey"})
	return j.Agg(
		[]string{"c_custkey", "c_name", "c_acctbal", "c_phone", "n_name", "c_address", "c_comment"},
		plan.Sum(revenue(j), "revenue"),
	).Sort(plan.Desc("revenue")).Limit(20).Node()
}

func q11(b *plan.Builder, sf float64) plan.Node {
	build := func() *plan.Rel {
		n := b.Scan("nation", "n_nationkey", "n_name")
		n = n.Filter(expr.Eq(n.Col("n_name"), expr.Str("GERMANY")))
		s := b.Scan("supplier", "s_suppkey", "s_nationkey")
		sn := s.Join(n, plan.InnerJoin, []string{"s_nationkey"}, []string{"n_nationkey"})
		ps := b.Scan("partsupp", "ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost")
		return ps.Join(sn, plan.InnerJoin, []string{"ps_suppkey"}, []string{"s_suppkey"})
	}
	value := func(r *plan.Rel) expr.Expr {
		return expr.Mul(r.Col("ps_supplycost"), expr.ToFloat(r.Col("ps_availqty")))
	}
	grouped := build()
	g := grouped.Agg([]string{"ps_partkey"}, plan.Sum(value(grouped), "value"))
	total := build()
	tot := total.Agg(nil, plan.Sum(value(total), "total_value"))
	// The spec's HAVING fraction is 0.0001/SF.
	frac := 0.0001 / sf
	j := g.Cross(tot)
	return j.Filter(expr.Gt(j.Col("value"), expr.Mul(j.Col("total_value"), expr.Float(frac)))).
		Keep("ps_partkey", "value").
		Sort(plan.Desc("value")).Node()
}

func q12(b *plan.Builder, _ float64) plan.Node {
	l := b.Scan("lineitem", "l_orderkey", "l_shipmode", "l_shipdate", "l_commitdate", "l_receiptdate")
	l = l.Filter(expr.And(
		expr.InStrings(l.Col("l_shipmode"), "MAIL", "SHIP"),
		expr.Lt(l.Col("l_commitdate"), l.Col("l_receiptdate")),
		expr.Lt(l.Col("l_shipdate"), l.Col("l_commitdate")),
		expr.Ge(l.Col("l_receiptdate"), expr.Date("1994-01-01")),
		expr.Lt(l.Col("l_receiptdate"), expr.Date("1995-01-01")),
	))
	// The heavily filtered lineitem is the smaller estimated side: orders
	// probes it (DuckDB's build-side choice; Fig. 8 flags Q12's suspension
	// as retaining this SF-scaling hash table).
	o := b.Scan("orders", "o_orderkey", "o_orderpriority")
	j := o.Join(l, plan.InnerJoin, []string{"o_orderkey"}, []string{"l_orderkey"})
	isHigh := expr.InStrings(j.Col("o_orderpriority"), "1-URGENT", "2-HIGH")
	return j.Agg([]string{"l_shipmode"},
		plan.Sum(expr.When(isHigh, expr.Int(1), expr.Int(0)), "high_line_count"),
		plan.Sum(expr.When(isHigh, expr.Int(0), expr.Int(1)), "low_line_count"),
	).Sort(plan.Asc("l_shipmode")).Node()
}

func q13(b *plan.Builder, _ float64) plan.Node {
	c := b.Scan("customer", "c_custkey")
	o := b.Scan("orders", "o_orderkey", "o_custkey", "o_comment")
	o = o.Filter(expr.NotLike(o.Col("o_comment"), "%special%requests%"))
	co := c.Join(o, plan.LeftOuterJoin, []string{"c_custkey"}, []string{"o_custkey"})
	counts := co.Agg([]string{"c_custkey"}, plan.Count(co.Col("o_orderkey"), "c_count"))
	return counts.Agg([]string{"c_count"}, plan.CountStar("custdist")).
		Sort(plan.Desc("custdist"), plan.Desc("c_count")).Node()
}

func q14(b *plan.Builder, _ float64) plan.Node {
	l := b.Scan("lineitem", "l_partkey", "l_extendedprice", "l_discount", "l_shipdate")
	l = l.Filter(expr.And(
		expr.Ge(l.Col("l_shipdate"), expr.Date("1995-09-01")),
		expr.Lt(l.Col("l_shipdate"), expr.Date("1995-10-01")),
	))
	p := b.Scan("part", "p_partkey", "p_type")
	j := l.Join(p, plan.InnerJoin, []string{"l_partkey"}, []string{"p_partkey"})
	vol := revenue(j)
	agg := j.Agg(nil,
		plan.Sum(expr.When(expr.Like(j.Col("p_type"), "PROMO%"), vol, expr.Float(0)), "promo"),
		plan.Sum(vol, "total"),
	)
	return agg.Project([]string{"promo_revenue"},
		expr.Div(expr.Mul(expr.Float(100), agg.Col("promo")), agg.Col("total")),
	).Node()
}

func q15(b *plan.Builder, _ float64) plan.Node {
	l := b.Scan("lineitem", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate")
	l = l.Filter(expr.And(
		expr.Ge(l.Col("l_shipdate"), expr.Date("1996-01-01")),
		expr.Lt(l.Col("l_shipdate"), expr.Date("1996-04-01")),
	))
	rev := l.Agg([]string{"l_suppkey"}, plan.Sum(revenue(l), "total_revenue"))
	maxRev := rev.Agg(nil, plan.Max(rev.Col("total_revenue"), "max_revenue"))
	s := b.Scan("supplier", "s_suppkey", "s_name", "s_address", "s_phone")
	j := s.Join(rev, plan.InnerJoin, []string{"s_suppkey"}, []string{"l_suppkey"}).Cross(maxRev)
	return j.Filter(expr.Eq(j.Col("total_revenue"), j.Col("max_revenue"))).
		Keep("s_suppkey", "s_name", "s_address", "s_phone", "total_revenue").
		Sort(plan.Asc("s_suppkey")).Node()
}

func q16(b *plan.Builder, _ float64) plan.Node {
	p := b.Scan("part", "p_partkey", "p_brand", "p_type", "p_size")
	p = p.Filter(expr.And(
		expr.Ne(p.Col("p_brand"), expr.Str("Brand#45")),
		expr.NotLike(p.Col("p_type"), "MEDIUM POLISHED%"),
		expr.In(p.Col("p_size"),
			vector.NewInt64(49), vector.NewInt64(14), vector.NewInt64(23), vector.NewInt64(45),
			vector.NewInt64(19), vector.NewInt64(3), vector.NewInt64(36), vector.NewInt64(9)),
	))
	ps := b.Scan("partsupp", "ps_partkey", "ps_suppkey")
	j := ps.Join(p, plan.InnerJoin, []string{"ps_partkey"}, []string{"p_partkey"})
	bad := b.Scan("supplier", "s_suppkey", "s_comment")
	bad = bad.Filter(expr.Like(bad.Col("s_comment"), "%Customer%Complaints%"))
	j = j.Join(bad, plan.AntiJoin, []string{"ps_suppkey"}, []string{"s_suppkey"})
	return j.Agg([]string{"p_brand", "p_type", "p_size"},
		plan.CountDistinct(j.Col("ps_suppkey"), "supplier_cnt"),
	).Sort(plan.Desc("supplier_cnt"), plan.Asc("p_brand"), plan.Asc("p_type"), plan.Asc("p_size")).Node()
}

func q17(b *plan.Builder, _ float64) plan.Node {
	p := b.Scan("part", "p_partkey", "p_brand", "p_container")
	p = p.Filter(expr.And(
		expr.Eq(p.Col("p_brand"), expr.Str("Brand#23")),
		expr.Eq(p.Col("p_container"), expr.Str("MED BOX")),
	))
	l := b.Scan("lineitem", "l_partkey", "l_quantity", "l_extendedprice")
	lp := l.Join(p, plan.InnerJoin, []string{"l_partkey"}, []string{"p_partkey"})

	// The brand/container filter keeps a handful of parts, so the
	// (lineitem ⋈ part) side is tiny and becomes the hash-build side; the
	// per-partkey average aggregate (SF-scaling) probes it.
	l2 := b.Scan("lineitem", "l_partkey", "l_quantity")
	avgQty := l2.Agg([]string{"l_partkey"}, plan.Avg(l2.Col("l_quantity"), "avg_qty")).Rename("a.")
	j := avgQty.Join(lp, plan.InnerJoin, []string{"a.l_partkey"}, []string{"l_partkey"})
	j = j.Filter(expr.Lt(j.Col("l_quantity"), expr.Mul(expr.Float(0.2), j.Col("a.avg_qty"))))
	agg := j.Agg(nil, plan.Sum(j.Col("l_extendedprice"), "sum_price"))
	return agg.Project([]string{"avg_yearly"},
		expr.Div(agg.Col("sum_price"), expr.Float(7)),
	).Node()
}

func q18(b *plan.Builder, _ float64) plan.Node {
	lAgg := b.Scan("lineitem", "l_orderkey", "l_quantity")
	big := lAgg.Agg([]string{"l_orderkey"}, plan.Sum(lAgg.Col("l_quantity"), "sum_qty"))
	big = big.Filter(expr.Gt(big.Col("sum_qty"), expr.Float(300))).Keep("l_orderkey").Rename("big.")

	o := b.Scan("orders", "o_orderkey", "o_custkey", "o_orderdate", "o_totalprice")
	o = o.Join(big, plan.SemiJoin, []string{"o_orderkey"}, []string{"big.l_orderkey"})
	c := b.Scan("customer", "c_custkey", "c_name")
	oc := o.Join(c, plan.InnerJoin, []string{"o_custkey"}, []string{"c_custkey"})
	l := b.Scan("lineitem", "l_orderkey", "l_quantity")
	j := l.Join(oc, plan.InnerJoin, []string{"l_orderkey"}, []string{"o_orderkey"})
	return j.Agg([]string{"c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice"},
		plan.Sum(j.Col("l_quantity"), "sum_qty"),
	).Sort(plan.Desc("o_totalprice"), plan.Asc("o_orderdate")).Limit(100).Node()
}

func q19(b *plan.Builder, _ float64) plan.Node {
	l := b.Scan("lineitem", "l_partkey", "l_quantity", "l_extendedprice", "l_discount", "l_shipinstruct", "l_shipmode")
	l = l.Filter(expr.And(
		expr.InStrings(l.Col("l_shipmode"), "AIR", "AIR REG"),
		expr.Eq(l.Col("l_shipinstruct"), expr.Str("DELIVER IN PERSON")),
	))
	p := b.Scan("part", "p_partkey", "p_brand", "p_size", "p_container")
	branch := func(cr plan.ColResolver, brand string, containers []string, qlo, qhi float64, sizeHi int64) expr.Expr {
		return expr.And(
			expr.Eq(cr.Col("p_brand"), expr.Str(brand)),
			expr.InStrings(cr.Col("p_container"), containers...),
			expr.Ge(cr.Col("l_quantity"), expr.Float(qlo)),
			expr.Le(cr.Col("l_quantity"), expr.Float(qhi)),
			expr.Between(cr.Col("p_size"), expr.Int(1), expr.Int(sizeHi)),
		)
	}
	j := l.JoinExtra(p, plan.InnerJoin, []string{"l_partkey"}, []string{"p_partkey"},
		func(cr plan.ColResolver) expr.Expr {
			return expr.Or(
				branch(cr, "Brand#12", []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 1, 11, 5),
				branch(cr, "Brand#23", []string{"MED BAG", "MED BOX", "MED PKG", "MED PACK"}, 10, 20, 10),
				branch(cr, "Brand#34", []string{"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 20, 30, 15),
			)
		})
	return j.Agg(nil, plan.Sum(revenue(j), "revenue")).Node()
}

func q20(b *plan.Builder, _ float64) plan.Node {
	forest := b.Scan("part", "p_partkey", "p_name")
	forest = forest.Filter(expr.Like(forest.Col("p_name"), "forest%"))
	shipped := b.Scan("lineitem", "l_partkey", "l_suppkey", "l_quantity", "l_shipdate")
	shipped = shipped.Filter(expr.And(
		expr.Ge(shipped.Col("l_shipdate"), expr.Date("1994-01-01")),
		expr.Lt(shipped.Col("l_shipdate"), expr.Date("1995-01-01")),
	))
	sumQty := shipped.Agg([]string{"l_partkey", "l_suppkey"}, plan.Sum(shipped.Col("l_quantity"), "sum_qty"))

	ps := b.Scan("partsupp", "ps_partkey", "ps_suppkey", "ps_availqty")
	ps = ps.Join(forest, plan.SemiJoin, []string{"ps_partkey"}, []string{"p_partkey"})
	j := ps.Join(sumQty, plan.InnerJoin,
		[]string{"ps_partkey", "ps_suppkey"}, []string{"l_partkey", "l_suppkey"})
	j = j.Filter(expr.Gt(expr.ToFloat(j.Col("ps_availqty")),
		expr.Mul(expr.Float(0.5), j.Col("sum_qty"))))
	keys := j.Keep("ps_suppkey").Rename("k.")

	n := b.Scan("nation", "n_nationkey", "n_name")
	n = n.Filter(expr.Eq(n.Col("n_name"), expr.Str("CANADA")))
	s := b.Scan("supplier", "s_suppkey", "s_name", "s_address", "s_nationkey")
	sn := s.Join(n, plan.InnerJoin, []string{"s_nationkey"}, []string{"n_nationkey"})
	return sn.Join(keys, plan.SemiJoin, []string{"s_suppkey"}, []string{"k.ps_suppkey"}).
		Keep("s_name", "s_address").
		Sort(plan.Asc("s_name")).Node()
}

func q21(b *plan.Builder, _ float64) plan.Node {
	n := b.Scan("nation", "n_nationkey", "n_name")
	n = n.Filter(expr.Eq(n.Col("n_name"), expr.Str("SAUDI ARABIA")))
	s := b.Scan("supplier", "s_suppkey", "s_name", "s_nationkey")
	sn := s.Join(n, plan.InnerJoin, []string{"s_nationkey"}, []string{"n_nationkey"})

	l1 := b.Scan("lineitem", "l_orderkey", "l_suppkey", "l_receiptdate", "l_commitdate")
	l1 = l1.Filter(expr.Gt(l1.Col("l_receiptdate"), l1.Col("l_commitdate")))
	j := l1.Join(sn, plan.InnerJoin, []string{"l_suppkey"}, []string{"s_suppkey"})

	o := b.Scan("orders", "o_orderkey", "o_orderstatus")
	o = o.Filter(expr.Eq(o.Col("o_orderstatus"), expr.Str("F")))
	j = j.Join(o, plan.InnerJoin, []string{"l_orderkey"}, []string{"o_orderkey"})

	// j holds a few thousand rows, so it is the build side of both
	// subqueries and the lineitem scans mark it.
	// EXISTS: another lineitem of the same order from a different supplier.
	l2 := b.Scan("lineitem", "l_orderkey", "l_suppkey").Rename("l2.")
	j = l2.JoinExtra(j, plan.RightSemiJoin, []string{"l2.l_orderkey"}, []string{"l_orderkey"},
		func(cr plan.ColResolver) expr.Expr {
			return expr.Ne(cr.Col("l2.l_suppkey"), cr.Col("l_suppkey"))
		})

	// NOT EXISTS: no other supplier of the same order was also late.
	l3 := b.Scan("lineitem", "l_orderkey", "l_suppkey", "l_receiptdate", "l_commitdate")
	l3 = l3.Filter(expr.Gt(l3.Col("l_receiptdate"), l3.Col("l_commitdate"))).
		Keep("l_orderkey", "l_suppkey").Rename("l3.")
	j = l3.JoinExtra(j, plan.RightAntiJoin, []string{"l3.l_orderkey"}, []string{"l_orderkey"},
		func(cr plan.ColResolver) expr.Expr {
			return expr.Ne(cr.Col("l3.l_suppkey"), cr.Col("l_suppkey"))
		})

	return j.Agg([]string{"s_name"}, plan.CountStar("numwait")).
		Sort(plan.Desc("numwait"), plan.Asc("s_name")).Limit(100).Node()
}

func q22(b *plan.Builder, _ float64) plan.Node {
	codes := []string{"13", "31", "23", "29", "30", "18", "17"}
	base := func() *plan.Rel {
		c := b.Scan("customer", "c_custkey", "c_phone", "c_acctbal")
		proj := c.Project(
			[]string{"cntrycode", "c_acctbal", "c_custkey"},
			expr.Substr(c.Col("c_phone"), 1, 2), c.Col("c_acctbal"), c.Col("c_custkey"),
		)
		return proj.Filter(expr.InStrings(proj.Col("cntrycode"), codes...))
	}
	cf := base()
	avgRel := base()
	avgRel = avgRel.Filter(expr.Gt(avgRel.Col("c_acctbal"), expr.Float(0)))
	avgBal := avgRel.Agg(nil, plan.Avg(avgRel.Col("c_acctbal"), "avg_bal"))

	j := cf.Cross(avgBal)
	j = j.Filter(expr.Gt(j.Col("c_acctbal"), j.Col("avg_bal")))
	// NOT EXISTS over orders: the customers are the build side, and every
	// order marks its customer.
	o := b.Scan("orders", "o_custkey")
	j = o.Join(j, plan.RightAntiJoin, []string{"o_custkey"}, []string{"c_custkey"})
	return j.Agg([]string{"cntrycode"},
		plan.CountStar("numcust"),
		plan.Sum(j.Col("c_acctbal"), "totacctbal"),
	).Sort(plan.Asc("cntrycode")).Node()
}
