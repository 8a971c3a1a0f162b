package plan_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/sql"
	"github.com/riveterdb/riveter/internal/tpch"
)

// shortSQL is the statements of the proxy-short-sql benchmark workload,
// each with one literal for its parameter.
var shortSQL = []string{
	"SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
	"SELECT l_returnflag, l_linestatus, count(*) AS n, sum(l_quantity) AS qty FROM lineitem WHERE l_quantity < 30 GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
	"SELECT c_mktsegment, count(*) AS n FROM orders JOIN customer ON o_custkey = c_custkey WHERE o_totalprice > 50000 GROUP BY c_mktsegment ORDER BY c_mktsegment",
	"SELECT l_shipinstruct, count(*) AS n, avg(l_discount) AS disc FROM lineitem WHERE l_quantity > 20 GROUP BY l_shipinstruct ORDER BY l_shipinstruct",
	"SELECT l_suppkey, sum(l_quantity) AS qty FROM lineitem WHERE l_extendedprice > 40000 GROUP BY l_suppkey ORDER BY 2 DESC, 1 ASC LIMIT 10",
	"SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_extendedprice > 60000 ORDER BY 2 DESC, 1 ASC LIMIT 10",
	"SELECT l_returnflag, count(*) AS n, max(l_extendedprice) AS top FROM lineitem WHERE l_discount < 0.05 AND l_quantity < 30 GROUP BY l_returnflag ORDER BY l_returnflag",
	"SELECT l_shipmode, count(*) AS n, avg(l_extendedprice) AS price FROM lineitem WHERE l_extendedprice > 30000 GROUP BY l_shipmode ORDER BY l_shipmode",
}

var (
	pruneCatOnce sync.Once
	pruneCat     *catalog.Catalog
)

func tpchCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	pruneCatOnce.Do(func() {
		cat, err := tpch.Generate(tpch.Config{SF: 0.001})
		if err != nil {
			t.Fatal(err)
		}
		pruneCat = cat
	})
	return pruneCat
}

// prunePlans returns the 22 TPC-H plans, the short SQL statements and a
// few joins of the SQL front end, by name.
func prunePlans(t testing.TB) map[string]plan.Node {
	cat := tpchCatalog(t)
	plans := map[string]plan.Node{}
	for _, q := range tpch.All() {
		plans[q.Name] = q.Build(plan.NewBuilder(cat), 0.001)
	}
	stmts := append(append([]string(nil), shortSQL...),
		"SELECT * FROM nation JOIN region ON n_regionkey = r_regionkey",
		"SELECT count(*) FROM nation n JOIN region r ON n.n_regionkey = r.r_regionkey AND n.n_nationkey > r.r_regionkey",
		"SELECT n_name, r_name FROM nation LEFT JOIN region ON n_regionkey = r_regionkey WHERE r_name LIKE 'A%' ORDER BY n_name",
		"SELECT s_name FROM supplier SEMI JOIN nation ON s_nationkey = n_nationkey ORDER BY s_name LIMIT 5",
		"SELECT count(*) AS n FROM region CROSS JOIN nation",
		"SELECT 1 AS one FROM region",
	)
	for i, s := range stmts {
		n, err := sql.Compile(s, cat)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		plans[fmt.Sprintf("sql%d", i)] = n
	}
	return plans
}

// TestPrunedPlansCarryNoDeadColumn prunes every plan and checks it with
// checkNoDeadColumn, which knows the pass only through what it promises.
func TestPrunedPlansCarryNoDeadColumn(t *testing.T) {
	for name, n := range prunePlans(t) {
		pruned := plan.Prune(n)
		if err := checkNoDeadColumn(pruned); err != nil {
			t.Errorf("%s: %v\n%s", name, err, plan.Tree(pruned))
		}
		if got, want := pruned.Schema().String(), n.Schema().String(); got != want {
			t.Errorf("%s: pruned schema %s, want %s", name, got, want)
		}
		if again := plan.Prune(pruned); again != pruned {
			t.Errorf("%s: pruning the pruned plan rebuilt it:\n%s", name, plan.Tree(again))
		}
	}
}

// TestPruneDropsDeadColumns: the checker sees dead columns in plans as
// written — joins of the hand-built TPC-H plans emit their keys, the SQL
// front end scans every column — and the pruned SQL plans and Q5, whose
// supplier scan serves Q2 too, scan fewer columns.
func TestPruneDropsDeadColumns(t *testing.T) {
	plans := prunePlans(t)
	for _, name := range []string{"Q2", "Q5", "Q7", "Q8", "Q13", "Q21", "sql0", "sql2"} {
		n := plans[name]
		if checkNoDeadColumn(n) == nil {
			t.Errorf("%s: the plan as written carries no dead column", name)
		}
		if strings.HasPrefix(name, "Q") && name != "Q5" {
			continue
		}
		if got, was := scannedColumns(plan.Prune(n)), scannedColumns(n); got >= was {
			t.Errorf("%s: pruned plan scans %d columns, the plan as written %d", name, got, was)
		}
	}
}

// TestPruneCountsOnWhatTheFilterReads: a scan nothing above reads keeps
// the columns its filter reads to count rows on, and no other.
func TestPruneCountsOnWhatTheFilterReads(t *testing.T) {
	cat := tpchCatalog(t)
	for stmt, want := range map[string]int{
		"SELECT count(*) AS n FROM lineitem WHERE l_quantity < 5":                                     1,
		"SELECT count(*) AS n FROM lineitem":                                                          1,
		"SELECT count(*) AS n FROM orders JOIN customer ON o_custkey = c_custkey WHERE c_acctbal > 0": 3,
	} {
		n, err := sql.Compile(stmt, cat)
		if err != nil {
			t.Fatal(err)
		}
		pruned := plan.Prune(n)
		if got := scannedColumns(pruned); got != want {
			t.Errorf("%s: scans %d columns, want %d:\n%s", stmt, got, want, plan.Tree(pruned))
		}
		if err := checkNoDeadColumn(pruned); err != nil {
			t.Errorf("%s: %v", stmt, err)
		}
	}
}

// TestPruneReturnsLivePlanAsIs: a plan whose every column is read comes
// back as the same node, and so does every node of a plan under a root
// that reads all.
func TestPruneReturnsLivePlanAsIs(t *testing.T) {
	b := plan.NewBuilder(tpchCatalog(t))
	r := b.Scan("region")
	n := b.Scan("nation", "n_nationkey", "n_regionkey")
	nr := b.Scan("nation", "n_regionkey")
	for _, live := range []plan.Node{
		r.Node(),
		r.Filter(expr.Eq(r.Col("r_name"), expr.Str("ASIA"))).Node(),
		n.Join(r, plan.InnerJoin, []string{"n_regionkey"}, []string{"r_regionkey"}).Node(),
		nr.Agg([]string{"n_regionkey"}, plan.CountStar("n")).Sort(plan.Desc("n")).Limit(3).Node(),
	} {
		if got := plan.Prune(live); got != live {
			t.Errorf("live plan rebuilt:\n%s\nto\n%s", plan.Tree(live), plan.Tree(got))
		}
	}
}

// TestPruneKeepsSharedNodesShared: Q15 reads its revenue aggregate twice
// (the join and the maximum over it). The pruned plan reads one node
// twice too, pruned to what both read.
func TestPruneKeepsSharedNodesShared(t *testing.T) {
	q15 := prunePlans(t)["Q15"]
	count := func(n plan.Node) (visits, distinct int) {
		seen := map[plan.Node]bool{}
		plan.Walk(n, func(x plan.Node) {
			if a, ok := x.(*plan.Aggregate); ok && len(a.GroupBy) > 0 {
				visits++
				if !seen[x] {
					seen[x] = true
					distinct++
				}
			}
		})
		return visits, distinct
	}
	if v, d := count(q15); v != 2 || d != 1 {
		t.Fatalf("Q15 as written reads %d grouped aggregates, %d distinct; want 2, 1", v, d)
	}
	if v, d := count(plan.Prune(q15)); v != 2 || d != 1 {
		t.Errorf("pruned Q15 reads %d grouped aggregates, %d distinct; want 2, 1", v, d)
	}
}

// scannedColumns sums the projected columns of every scan of n.
func scannedColumns(n plan.Node) int {
	cols := 0
	plan.Walk(n, func(x plan.Node) {
		if s, ok := x.(*plan.Scan); ok {
			cols += len(s.Projection)
		}
	})
	return cols
}

// checkNoDeadColumn reports an output column of a node of root that
// nothing above reads, and a projection right above another. A column
// counts as read when a parent's expression reads it, when a parent passes
// it on to a column read above, or when the node's own filter condition or
// sort keys read it. Exempt are an aggregate's outputs, which stay as
// written, the one column of a node nothing reads (its rows still count),
// and a join right under a projection: the lowering folds the pair, so the
// join's output is the columns the projection reads.
func checkNoDeadColumn(root plan.Node) error {
	// Number the distinct nodes in post-order, so that walking backwards
	// meets every parent of a node before the node.
	var order []plan.Node
	index := map[plan.Node]int{}
	var number func(n plan.Node)
	number = func(n plan.Node) {
		if _, ok := index[n]; ok {
			return
		}
		for _, c := range n.Children() {
			number(c)
		}
		index[n] = len(order)
		order = append(order, n)
	}
	number(root)
	read := make([][]bool, len(order))
	parents := make([][]plan.Node, len(order))
	for i, n := range order {
		read[i] = make([]bool, n.Schema().Arity())
	}
	for j := range read[index[root]] {
		read[index[root]][j] = true
	}
	mark := func(dst []bool, shift int, es ...expr.Expr) {
		for _, e := range es {
			if e == nil {
				continue
			}
			_, _ = expr.RemapColumns(e, func(c int) (int, error) {
				if c-shift >= 0 && c-shift < len(dst) {
					dst[c-shift] = true
				}
				return c, nil
			})
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		n, r := order[i], read[i]
		kids := n.Children()
		kid := make([][]bool, len(kids))
		for k, c := range kids {
			kid[k] = read[index[c]]
			parents[index[c]] = append(parents[index[c]], n)
		}
		switch t := n.(type) {
		case *plan.Filter:
			mark(r, 0, t.Cond)
			copy(kid[0], orOf(kid[0], r))
		case *plan.Scan:
			mark(r, 0, t.Filter)
		case *plan.Project:
			mark(kid[0], 0, t.Exprs...)
			if _, ok := t.Child.(*plan.Project); ok {
				return fmt.Errorf("projection %s right above projection %s", t, t.Child)
			}
		case *plan.Join:
			lw := t.Left.Schema().Arity()
			switch t.Type {
			case plan.SemiJoin, plan.AntiJoin:
				copy(kid[0], orOf(kid[0], r))
			case plan.RightSemiJoin, plan.RightAntiJoin:
				copy(kid[1], orOf(kid[1], r))
			default:
				copy(kid[0], orOf(kid[0], r[:lw]))
				copy(kid[1], orOf(kid[1], r[lw:]))
			}
			mark(kid[0], 0, t.LeftKeys...)
			mark(kid[1], 0, t.RightKeys...)
			mark(kid[0], 0, t.Extra)
			mark(kid[1], lw, t.Extra)
		case *plan.Aggregate:
			mark(kid[0], 0, t.GroupBy...)
			for _, a := range t.Aggs {
				mark(kid[0], 0, a.Arg)
			}
		case *plan.Sort:
			for _, k := range t.Keys {
				mark(r, 0, k.Expr)
			}
			copy(kid[0], orOf(kid[0], r))
		case *plan.Limit:
			if s, ok := t.Child.(*plan.Sort); ok {
				for _, k := range s.Keys {
					mark(r, 0, k.Expr)
				}
			}
			copy(kid[0], orOf(kid[0], r))
		case *plan.Rename:
			copy(kid[0], orOf(kid[0], r))
		}
	}
	for i, n := range order {
		if _, ok := n.(*plan.Aggregate); ok {
			continue
		}
		if _, ok := n.(*plan.Join); ok && underProjections(parents[i]) {
			continue
		}
		r := read[i]
		if len(r) == 1 {
			continue
		}
		var dead []string
		for j, ok := range r {
			if !ok {
				dead = append(dead, n.Schema().Columns[j].Name)
			}
		}
		if dead != nil {
			return fmt.Errorf("%s outputs %s, which nothing above reads", n, strings.Join(dead, ", "))
		}
	}
	return nil
}

func underProjections(parents []plan.Node) bool {
	for _, p := range parents {
		if _, ok := p.(*plan.Project); !ok {
			return false
		}
	}
	return len(parents) > 0
}

func orOf(a, b []bool) []bool {
	out := make([]bool, len(a))
	for j := range a {
		out[j] = a[j] || b[j]
	}
	return out
}
