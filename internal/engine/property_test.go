package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

// randomTable builds a table with random int keys and float payloads.
func randomTable(t *testing.T, cat *catalog.Catalog, name string, rows, keyRange int, rng *rand.Rand) *catalog.Table {
	t.Helper()
	tbl, err := cat.Create(name, catalog.NewSchema(
		catalog.Col(name+"_k", vector.TypeInt64),
		catalog.Col(name+"_v", vector.TypeFloat64),
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		key := vector.NewInt64(int64(rng.Intn(keyRange)))
		if rng.Intn(20) == 0 {
			key = vector.NewNull(vector.TypeInt64)
		}
		_ = tbl.AppendRow(key, vector.NewFloat64(float64(rng.Intn(1000))))
	}
	return tbl
}

// joinRow is one row of a join oracle table: a BIGINT key, a DOUBLE and a
// VARCHAR payload, any of them NULL.
type joinRow struct{ k, v, s vector.Value }

// joinRowCols are a joinRow's column types, in table order.
var joinRowCols = []vector.Type{vector.TypeInt64, vector.TypeFloat64, vector.TypeString}

// createJoinTable stores rows as table name, with columns name_k, name_v
// and name_s.
func createJoinTable(tb testing.TB, cat *catalog.Catalog, name string, rows []joinRow) {
	tb.Helper()
	tbl, err := cat.Create(name, catalog.NewSchema(
		catalog.Col(name+"_k", vector.TypeInt64),
		catalog.Col(name+"_v", vector.TypeFloat64),
		catalog.Col(name+"_s", vector.TypeString),
	))
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r.k, r.v, r.s); err != nil {
			tb.Fatal(err)
		}
	}
}

// randomJoinRows draws n rows with keys in [0, keyRange), each column
// NULL now and then.
func randomJoinRows(rng *rand.Rand, n, keyRange int) []joinRow {
	rows := make([]joinRow, n)
	for i := range rows {
		r := joinRow{
			k: vector.NewInt64(int64(rng.Intn(keyRange))),
			v: vector.NewFloat64(float64(rng.Intn(50))),
			s: vector.NewString([]string{"", "a", "b", "c"}[rng.Intn(4)]),
		}
		if rng.Intn(20) == 0 {
			r.k = vector.NewNull(vector.TypeInt64)
		}
		if rng.Intn(8) == 0 {
			r.v = vector.NewNull(vector.TypeFloat64)
		}
		if rng.Intn(8) == 0 {
			r.s = vector.NewNull(vector.TypeString)
		}
		rows[i] = r
	}
	return rows
}

// Join keys the oracle checks, by index: l_k = r_k; none (a cross join,
// or a keyless semi or anti join); a computed key beside a bare one,
// (l_k + 1, l_s) = (r_k + 1, r_s); and two keys on the same build column,
// (l_k, l_k) = (r_k, r_k).
const (
	keysK = iota
	keysNone
	keysComputed
	keysSameColumn
	numJoinKeyings
)

// joinKeys returns keying kind's probe and build key expressions, over the
// l and r tables' columns, and the oracle's key match.
func joinKeys(kind int) (lk, rk []expr.Expr, match func(l, r joinRow) bool) {
	k := func(i int) expr.Expr { return expr.NamedCol(i, vector.TypeInt64, "") }
	s := func(i int) expr.Expr { return expr.NamedCol(i, vector.TypeString, "") }
	eqK := func(l, r joinRow) bool { return !l.k.Null && !r.k.Null && l.k.I == r.k.I }
	switch kind {
	case keysNone:
		return nil, nil, func(l, r joinRow) bool { return true }
	case keysComputed:
		return []expr.Expr{expr.Add(k(0), expr.Int(1)), s(2)}, []expr.Expr{expr.Add(k(0), expr.Int(1)), s(2)},
			func(l, r joinRow) bool { return eqK(l, r) && !l.s.Null && !r.s.Null && l.s.S == r.s.S }
	case keysSameColumn:
		return []expr.Expr{k(0), k(0)}, []expr.Expr{k(0), k(0)}, eqK
	}
	return []expr.Expr{k(0)}, []expr.Expr{k(0)}, eqK
}

// Residual predicates the join oracle checks, by index: none, a DOUBLE
// comparison, a VARCHAR one, and one reading the build key column, each
// false where either side is NULL. They are built over l's columns (0-2)
// followed by r's (3-5).
const numJoinResiduals = 4

func joinResidual(kind int) (expr.Expr, func(l, r joinRow) bool) {
	col := func(i int) expr.Expr { return expr.NamedCol(i, joinRowCols[i%3], "") }
	switch kind {
	case 1:
		return expr.Lt(col(1), col(4)),
			func(l, r joinRow) bool { return !l.v.Null && !r.v.Null && l.v.F < r.v.F }
	case 2:
		return expr.Ne(col(2), col(5)),
			func(l, r joinRow) bool { return !l.s.Null && !r.s.Null && l.s.S != r.s.S }
	case 3:
		return expr.Gt(col(1), col(3)),
			func(l, r joinRow) bool { return !l.v.Null && !r.k.Null && l.v.F > float64(r.k.I) }
	}
	return nil, nil
}

// keepBuildRow is the filter in front of every oracle join's build: it
// drops about a fifth of the rows, so worker-local build buffers end in
// partial chunks that Combine must pack.
func keepBuildRow(r joinRow) bool { return r.s.Null || r.s.S != "c" }

func renderRow(vals []vector.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

// nestedLoopJoin is the oracle: probe rows l against build rows r where
// keyMatch and the residual pred (when not nil) hold, each output row
// rendered, sorted. A right-semi or right-anti join outputs the build rows
// that match a probe row, or match none.
func nestedLoopJoin(jt plan.JoinType, l, r []joinRow, keyMatch, pred func(l, r joinRow) bool) []string {
	var out []string
	if jt == plan.RightSemiJoin || jt == plan.RightAntiJoin {
		for _, b := range r {
			if !keepBuildRow(b) {
				continue
			}
			matched := slices.ContainsFunc(l, func(a joinRow) bool { return keyMatch(a, b) && (pred == nil || pred(a, b)) })
			if matched == (jt == plan.RightSemiJoin) {
				out = append(out, renderRow([]vector.Value{b.k, b.v, b.s}))
			}
		}
		sort.Strings(out)
		return out
	}
	nullBuild := joinRow{vector.NewNull(vector.TypeInt64), vector.NewNull(vector.TypeFloat64), vector.NewNull(vector.TypeString)}
	pair := func(a, b joinRow) string { return renderRow([]vector.Value{a.k, a.v, a.s, b.k, b.v, b.s}) }
	for _, a := range l {
		matches := 0
		for _, b := range r {
			if !keepBuildRow(b) || !keyMatch(a, b) {
				continue
			}
			if pred != nil && !pred(a, b) {
				continue
			}
			matches++
			if jt == plan.InnerJoin || jt == plan.LeftOuterJoin || jt == plan.CrossJoin {
				out = append(out, pair(a, b))
			}
		}
		switch {
		case jt == plan.LeftOuterJoin && matches == 0:
			out = append(out, pair(a, nullBuild))
		case jt == plan.SemiJoin && matches > 0, jt == plan.AntiJoin && matches == 0:
			out = append(out, renderRow([]vector.Value{a.k, a.v, a.s}))
		}
	}
	sort.Strings(out)
	return out
}

// joinCase is one join the oracle checks: its type, keying (joinKeys) and
// residual (joinResidual).
type joinCase struct {
	jt             plan.JoinType
	keys, residual int
}

func (c joinCase) String() string {
	return fmt.Sprintf("%v join, keys %d, residual %d", c.jt, c.keys, c.residual)
}

// checkJoinAgainstOracle runs probe l against build r as join jc on
// workers workers, and compares every output column of every row, as
// sorted multisets, with the nested-loop oracle. With suspendIn ≥ 0 it
// runs the join to a process-level suspension in the middle of that
// pipeline instead (0 is the build, 1 a right-semi or right-anti join's
// mark pipeline), and finishes it from the saved state in a fresh
// executor.
func checkJoinAgainstOracle(tb testing.TB, l, r []joinRow, jc joinCase, workers, suspendIn int) {
	tb.Helper()
	cat := catalog.New()
	createJoinTable(tb, cat, "l", l)
	createJoinTable(tb, cat, "r", r)
	lk, rk, keyMatch := joinKeys(jc.keys)
	extra, pred := joinResidual(jc.residual)
	b := plan.NewBuilder(cat)
	rs := expr.NamedCol(2, vector.TypeString, "")
	build := b.Scan("r").Filter(expr.Or(expr.IsNull(rs), expr.Ne(rs, expr.Str("c"))))
	node := plan.NewJoin(jc.jt, b.Scan("l").Node(), build.Node(), lk, rk, extra)
	run := fmt.Sprintf("%v, %d×%d rows, %d workers", jc, len(l), len(r), workers)
	var res *ResultSet
	if suspendIn >= 0 {
		run += fmt.Sprintf(", restored in the middle of pipeline %d", suspendIn)
		res = runSuspendedMidScan(tb, run, cat, node, workers, suspendIn)
	} else {
		res = runPlan(tb, cat, node, workers)
	}
	got := make([]string, res.NumRows())
	for i := range got {
		got[i] = renderRow(res.Row(int64(i)))
	}
	sort.Strings(got)
	want := nestedLoopJoin(jc.jt, l, r, keyMatch, pred)
	if len(got) != len(want) {
		tb.Fatalf("%s: %d rows, oracle %d", run, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			tb.Fatalf("%s: sorted row %d is %q, oracle %q", run, i, got[i], want[i])
		}
	}
}

var oracleJoinTypes = []plan.JoinType{plan.InnerJoin, plan.LeftOuterJoin, plan.SemiJoin, plan.AntiJoin,
	plan.RightSemiJoin, plan.RightAntiJoin}

// TestJoinMatchesNestedLoopOracle cross-checks the hash join against a
// brute-force nested loop over random tables, row for row and column for
// column: every keyed join type under each residual predicate, with NULL
// keys and payloads on both sides, and a cross join. One case gives one
// key more than two chunks of build rows, so the probe's pending matches
// flush in the middle of a probe row. The last cases pin the build's
// layout — a computed key beside a bare one, two keys on the same build
// column, semi and anti joins of either side whose residual reads one of
// several build columns (or the key column), keyless ones with and without
// a residual — each at 1 and 4 workers, and again through a process-level
// suspension in the middle of the build, restored from its saved state.
// Right-semi and right-anti joins are suspended in the middle of their
// mark pipeline too, over a probe side of several morsels.
func TestJoinMatchesNestedLoopOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		l := randomJoinRows(rng, 50+rng.Intn(300), 1+rng.Intn(30))
		r := randomJoinRows(rng, 50+rng.Intn(300), 1+rng.Intn(30))
		for _, jt := range oracleJoinTypes {
			checkJoinAgainstOracle(t, l, r, joinCase{jt, keysK, trial % numJoinResiduals}, 3, -1)
		}
		checkJoinAgainstOracle(t, l[:20+rng.Intn(30)], r[:1+rng.Intn(40)], joinCase{plan.CrossJoin, keysNone, 0}, 3, -1)
	}
	l := randomJoinRows(rng, 40, 3)
	r := randomJoinRows(rng, 5200, 1)
	for _, jt := range oracleJoinTypes {
		for residual := 0; residual < numJoinResiduals; residual++ {
			checkJoinAgainstOracle(t, l, r, joinCase{jt, keysK, residual}, 2, -1)
		}
	}

	var cases []joinCase
	for _, jt := range oracleJoinTypes {
		cases = append(cases, joinCase{jt, keysComputed, 0}, joinCase{jt, keysSameColumn, 1})
	}
	for _, jt := range []plan.JoinType{plan.SemiJoin, plan.AntiJoin, plan.RightSemiJoin, plan.RightAntiJoin} {
		cases = append(cases, joinCase{jt, keysK, 1}, joinCase{jt, keysK, 3},
			joinCase{jt, keysNone, 0}, joinCase{jt, keysNone, 2})
	}
	l = randomJoinRows(rng, 60, 20)
	r = randomJoinRows(rng, 7000, 20)
	for _, jc := range cases {
		for _, workers := range []int{1, 4} {
			checkJoinAgainstOracle(t, l, r, jc, workers, -1)
			checkJoinAgainstOracle(t, l, r, jc, workers, 0)
		}
	}
	l = randomJoinRows(rng, 7000, 40)
	r = randomJoinRows(rng, 60, 40)
	for _, jc := range cases {
		if jc.jt == plan.RightSemiJoin || jc.jt == plan.RightAntiJoin {
			for _, workers := range []int{1, 2} {
				checkJoinAgainstOracle(t, l, r, jc, workers, 1)
			}
		}
	}
}

// TestRightJoinsMatchProbeSideBytes: at one worker a right-semi or
// right-anti join, which hashes the rows it outputs, returns the bytes of
// the semi or anti join with its inputs swapped, which hashes the other
// side: the same rows, in the same order, under every keying and residual,
// with NULL keys and payloads on both sides.
func TestRightJoinsMatchProbeSideBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cat := catalog.New()
	createJoinTable(t, cat, "a", randomJoinRows(rng, 3000, 25))
	createJoinTable(t, cat, "b", randomJoinRows(rng, 200, 25))
	b := plan.NewBuilder(cat)
	a, bb := b.Scan("a").Node(), b.Scan("b").Node()
	encoded := func(n plan.Node) []byte {
		var buf bytes.Buffer
		enc := vector.NewEncoder(&buf)
		runPlan(t, cat, n, 1).Buf.Save(enc)
		if err := enc.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, pair := range [][2]plan.JoinType{{plan.SemiJoin, plan.RightSemiJoin}, {plan.AntiJoin, plan.RightAntiJoin}} {
		for keys := 0; keys < numJoinKeyings; keys++ {
			for residual := 0; residual < numJoinResiduals; residual++ {
				ak, bk, _ := joinKeys(keys)
				extra, _ := joinResidual(residual)
				// The residual reads a's columns (0-2) then b's (3-5); the
				// right join's concatenation is b's then a's.
				var swapped expr.Expr
				if extra != nil {
					var err error
					if swapped, err = expr.RemapColumns(extra, func(i int) (int, error) { return (i + 3) % 6, nil }); err != nil {
						t.Fatal(err)
					}
				}
				probeSide := encoded(plan.NewJoin(pair[0], a, bb, ak, bk, extra))
				buildSide := encoded(plan.NewJoin(pair[1], bb, a, bk, ak, swapped))
				if !bytes.Equal(probeSide, buildSide) {
					t.Errorf("%v join, keys %d, residual %d: %d result bytes, %v with swapped inputs %d",
						pair[0], keys, residual, len(probeSide), pair[1], len(buildSide))
				}
			}
		}
	}
}

// TestTopNMatchesFullSortPrefix verifies top-N against sort-then-head on
// random data, keys, and limits.
func TestTopNMatchesFullSortPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		cat := catalog.New()
		randomTable(t, cat, "t", 200+rng.Intn(3000), 1+rng.Intn(100), rng)
		limit := int64(1 + rng.Intn(40))
		desc := rng.Intn(2) == 0

		b := plan.NewBuilder(cat)
		key := plan.Asc("t_v")
		if desc {
			key = plan.Desc("t_v")
		}
		tb := b.Scan("t")
		full := runPlan(t, cat, tb.Sort(key, plan.Asc("t_k")).Node(), 2)
		topn := runPlan(t, cat, tb.Sort(key, plan.Asc("t_k")).Limit(limit).Node(), 4)

		want := full.NumRows()
		if want > limit {
			want = limit
		}
		if topn.NumRows() != want {
			t.Fatalf("trial %d: topn rows = %d, want %d", trial, topn.NumRows(), want)
		}
		for i := int64(0); i < want; i++ {
			fr, tr := full.Row(i), topn.Row(i)
			if !fr[1].Equal(tr[1]) {
				t.Errorf("trial %d row %d: sort key %v vs %v", trial, i, fr[1], tr[1])
			}
		}
	}
}

// aggOracle is one group's aggregates computed the plain way: a struct of
// running values per group in a Go map, sharing nothing with the engine.
type aggOracle struct {
	first        []vector.Value // the group's first-seen key, raw
	rows, nV, nS int64          // COUNT(*), COUNT(v), COUNT(s)
	sumV         float64
	sumI         int64
	minS, maxS   string
	minD, maxD   int64
	minV, maxV   float64
	minI, maxI   int64
	distinctI    map[int64]bool
	distinctS    map[string]bool
	distinctV    map[float64]bool
	sumDistinctV float64
	sumDistinctI int64
}

// oracleKey renders a group key for the oracle's map: -0.0 and +0.0 are
// one key, as NULL and NULL are.
func oracleKey(key []vector.Value) string {
	key = slices.Clone(key)
	for i, v := range key {
		if v.Type == vector.TypeFloat64 && v.F == 0 {
			key[i].F = 0
		}
	}
	return renderRow(key)
}

// aggGrouping is one GROUP BY of TestAggregationMatchesMapOracle: its key
// expressions over table t, and the key they give a row.
type aggGrouping struct {
	name  string
	names []string
	exprs func(*plan.Rel) []expr.Expr
	key   func(k, f, c vector.Value) []vector.Value
}

var aggGroupings = []aggGrouping{
	{"k", []string{"k"}, func(t *plan.Rel) []expr.Expr { return []expr.Expr{t.Col("k")} },
		func(k, _, _ vector.Value) []vector.Value { return []vector.Value{k} }},
	// BIGINT, DOUBLE with -0.0 beside +0.0, and a nullable VARCHAR.
	{"k,f,c", []string{"k", "f", "c"}, func(t *plan.Rel) []expr.Expr { return []expr.Expr{t.Col("k"), t.Col("f"), t.Col("c")} },
		func(k, f, c vector.Value) []vector.Value { return []vector.Value{k, f, c} }},
	// A computed key: k ranges from -1, so whatever value slot k + 1
	// leaves under a NULL (0 or 1) is also a real key.
	{"k+1", []string{"k1"}, func(t *plan.Rel) []expr.Expr {
		return []expr.Expr{expr.Add(t.Col("k"), expr.Lit(vector.NewInt64(1)))}
	}, func(k, _, _ vector.Value) []vector.Value {
		if k.Null {
			return []vector.Value{k}
		}
		return []vector.Value{vector.NewInt64(k.I + 1)}
	}},
}

// TestAggregationMatchesMapOracle verifies every aggregate function — SUM
// over doubles and integers, AVG, COUNT, COUNT(*), MIN and MAX over
// strings, dates, doubles and integers, COUNT DISTINCT over integers and
// strings, and SUM, AVG, MIN and MAX over DISTINCT — against plain maps,
// over random tables with NULL keys, NULL arguments, and one group (key 0)
// whose nullable arguments are all NULL. Each table is grouped three ways
// (aggGroupings), at 1 and 4 workers, and once more through a process-level
// suspension in the middle of the aggregation, restored from its saved
// state into a fresh executor. At 1 worker a group keeps its first-seen
// key, -0.0 or +0.0.
func TestAggregationMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		cat := catalog.New()
		tbl, err := cat.Create("t", catalog.NewSchema(
			catalog.Col("k", vector.TypeInt64),
			catalog.Col("f", vector.TypeFloat64),
			catalog.Col("c", vector.TypeString),
			catalog.Col("v", vector.TypeFloat64),
			catalog.Col("i", vector.TypeInt64),
			catalog.Col("s", vector.TypeString),
			catalog.Col("d", vector.TypeDate),
		))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]map[string]*aggOracle, len(aggGroupings))
		for gi := range want {
			want[gi] = map[string]*aggOracle{}
		}
		keyRange := 1 + rng.Intn(50)
		for r, rows := 0, 6000+rng.Intn(6000); r < rows; r++ {
			k := vector.NewInt64(int64(rng.Intn(keyRange) - 1))
			if rng.Intn(20) == 0 {
				k = vector.NewNull(vector.TypeInt64)
			}
			f := vector.NewFloat64([]float64{math.Copysign(0, -1), 0, 2.5}[rng.Intn(3)])
			c := vector.NewString([]string{"a", "b"}[rng.Intn(2)])
			if rng.Intn(4) == 0 {
				c = vector.NewNull(vector.TypeString)
			}
			v := vector.NewFloat64(float64(rng.Intn(1000)))
			s := vector.NewString(fmt.Sprintf("s%03d", rng.Intn(40)))
			if rng.Intn(10) == 0 || (!k.Null && k.I == 0) {
				v, s = vector.NewNull(vector.TypeFloat64), vector.NewNull(vector.TypeString)
			}
			i, d := int64(rng.Intn(30)-15), int64(rng.Intn(10000))
			if err := tbl.AppendRow(k, f, c, v, vector.NewInt64(i), s, vector.NewDate(d)); err != nil {
				t.Fatal(err)
			}
			for gi, grouping := range aggGroupings {
				key := grouping.key(k, f, c)
				g := want[gi][oracleKey(key)]
				if g == nil {
					g = &aggOracle{first: key, minD: d, maxD: d, minI: i, maxI: i,
						distinctI: map[int64]bool{}, distinctS: map[string]bool{}, distinctV: map[float64]bool{}}
					want[gi][oracleKey(key)] = g
				}
				g.rows++
				g.sumI += i
				if !g.distinctI[i] {
					g.distinctI[i] = true
					g.sumDistinctI += i
				}
				g.minD, g.maxD = min(g.minD, d), max(g.maxD, d)
				g.minI, g.maxI = min(g.minI, i), max(g.maxI, i)
				if !v.Null {
					if g.nV == 0 {
						g.minV, g.maxV = v.F, v.F
					}
					g.nV++
					g.sumV += v.F
					g.minV, g.maxV = min(g.minV, v.F), max(g.maxV, v.F)
					if !g.distinctV[v.F] {
						g.distinctV[v.F] = true
						g.sumDistinctV += v.F
					}
				}
				if !s.Null {
					if g.nS == 0 {
						g.minS, g.maxS = s.S, s.S
					}
					g.nS++
					g.minS, g.maxS = min(g.minS, s.S), max(g.maxS, s.S)
					g.distinctS[s.S] = true
				}
			}
		}

		for gi, grouping := range aggGroupings {
			tb := plan.NewBuilder(cat).Scan("t")
			distinct := func(sp plan.AggSpec) plan.AggSpec { sp.Distinct = true; return sp }
			v, i, s, d := tb.Col("v"), tb.Col("i"), tb.Col("s"), tb.Col("d")
			node := tb.AggExprs(grouping.names, grouping.exprs(tb),
				plan.Sum(v, "sum_v"), plan.Avg(v, "avg_v"), plan.Sum(i, "sum_i"),
				plan.Count(v, "n_v"), plan.Count(s, "n_s"), plan.CountStar("n"),
				plan.Min(s, "min_s"), plan.Max(s, "max_s"), plan.Min(d, "min_d"), plan.Max(d, "max_d"),
				plan.Min(v, "min_v"), plan.Max(v, "max_v"), plan.Min(i, "min_i"), plan.Max(i, "max_i"),
				plan.CountDistinct(i, "d_i"), plan.CountDistinct(s, "d_s"),
				distinct(plan.Sum(v, "sum_dv")), distinct(plan.Avg(v, "avg_dv")),
				distinct(plan.Min(v, "min_dv")), distinct(plan.Max(v, "max_dv")),
				distinct(plan.Sum(i, "sum_di")), distinct(plan.Avg(i, "avg_di")),
			).Node()
			for _, workers := range []int{1, 4} {
				run := fmt.Sprintf("trial %d, group by %s, %d workers", trial, grouping.name, workers)
				checkAggAgainstOracle(t, run, runPlan(t, cat, node, workers), len(grouping.names), want[gi], workers == 1)
				res := runSuspendedMidScan(t, run, cat, node, workers, 0)
				checkAggAgainstOracle(t, run+", restored mid-scan", res, len(grouping.names), want[gi], workers == 1)
			}
		}
	}
}

// runSuspendedMidScan runs a plan to a process-level suspension in the
// middle of the input of pipeline pipe, which must land there, saves the
// state, and finishes it in a fresh executor. The pipelines up to pipe
// must run one after the other, each depending on the one before.
//
// The suspension is armed at the bytes of the pipelines before pipe plus
// those of the j smallest morsels of pipe, so it fires by the time any j
// of them are read, and after at least one. j is half of pipe's morsels,
// but at most their count less the workers, and at least one: the other
// workers go on claiming until they next look at the processed bytes, one
// morsel each, so that many must stay unclaimed for the suspension to land
// in the middle of the scan.
func runSuspendedMidScan(tb testing.TB, run string, cat *catalog.Catalog, node plan.Node, workers, pipe int) *ResultSet {
	tb.Helper()
	// A finished run's sources read again the morsels it processed.
	done := NewExecutor(mustCompile(tb, node, cat), Options{Workers: workers})
	if _, err := done.Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
	var at int64
	for i, p := range done.pp.Pipelines[:pipe+1] {
		src := done.source(p)
		chunk := vector.NewViewChunk(src.OutTypes())
		sizes := make([]int64, src.MorselCount())
		for m := range sizes {
			if _, err := src.ReadMorsel(int64(m), chunk); err != nil {
				tb.Fatal(err)
			}
			sizes[m] = chunk.MemBytes()
		}
		if i == pipe {
			slices.Sort(sizes)
			sizes = sizes[:max(1, min(len(sizes)/2, len(sizes)-workers))]
		}
		for _, b := range sizes {
			at += b
		}
	}
	pp := mustCompile(tb, node, cat)
	ex := NewExecutor(pp, Options{Workers: workers})
	ex.SuspendWhen(KindProcess, at)
	if _, err := ex.Run(context.Background()); !errors.Is(err, ErrSuspended) {
		tb.Fatalf("%s: Run = %v, want a suspension", run, err)
	}
	if info := ex.Suspended(); info.Kind != KindProcess || info.Pipeline != pipe ||
		info.Cursor == 0 || info.Cursor >= ex.source(pp.Pipelines[pipe]).MorselCount() {
		tb.Fatalf("%s: suspension landed at %+v, want mid-scan of pipeline %d", run, info, pipe)
	}
	ex2 := NewExecutor(mustCompile(tb, node, cat), Options{Workers: workers})
	loadState(tb, ex2, saveState(tb, ex))
	res, err := ex2.Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// checkAggAgainstOracle compares every row of res, whose first nKeys
// columns are the group key, with the oracle's group. With firstSeen the
// key must be the group's first-seen key bit for bit.
func checkAggAgainstOracle(t *testing.T, run string, res *ResultSet, nKeys int, want map[string]*aggOracle, firstSeen bool) {
	t.Helper()
	if res.NumRows() != int64(len(want)) {
		t.Fatalf("%s: groups = %d, want %d", run, res.NumRows(), len(want))
	}
	for r := int64(0); r < res.NumRows(); r++ {
		row := res.Row(r)
		key := row[:nKeys]
		g := want[oracleKey(key)]
		if g == nil {
			t.Fatalf("%s: group %v is not in the input", run, key)
		}
		if firstSeen {
			for j, k := range key {
				if k.Type == vector.TypeFloat64 && math.Signbit(k.F) != math.Signbit(g.first[j].F) {
					t.Errorf("%s: group %v keeps %v, first seen as %v", run, key, k, g.first[j])
				}
			}
		}
		// SUM, AVG, MIN and MAX over no non-NULL value are NULL.
		orNull := func(n int64, v vector.Value) vector.Value {
			if n == 0 {
				return vector.NewNull(v.Type)
			}
			return v
		}
		nDV := int64(len(g.distinctV))
		minDV, maxDV := g.minV, g.maxV // the extremes of the distinct values are the extremes
		wantRow := append(slices.Clone(key),
			orNull(g.nV, vector.NewFloat64(g.sumV)), orNull(g.nV, vector.NewFloat64(g.sumV/float64(g.nV))), vector.NewInt64(g.sumI),
			vector.NewInt64(g.nV), vector.NewInt64(g.nS), vector.NewInt64(g.rows),
			orNull(g.nS, vector.NewString(g.minS)), orNull(g.nS, vector.NewString(g.maxS)),
			vector.NewDate(g.minD), vector.NewDate(g.maxD),
			orNull(g.nV, vector.NewFloat64(g.minV)), orNull(g.nV, vector.NewFloat64(g.maxV)),
			vector.NewInt64(g.minI), vector.NewInt64(g.maxI),
			vector.NewInt64(int64(len(g.distinctI))), vector.NewInt64(int64(len(g.distinctS))),
			orNull(nDV, vector.NewFloat64(g.sumDistinctV)), orNull(nDV, vector.NewFloat64(g.sumDistinctV/float64(nDV))),
			orNull(nDV, vector.NewFloat64(minDV)), orNull(nDV, vector.NewFloat64(maxDV)),
			vector.NewInt64(g.sumDistinctI), vector.NewFloat64(float64(g.sumDistinctI)/float64(len(g.distinctI))),
		)
		for c := nKeys; c < len(wantRow); c++ {
			got, w := row[c], wantRow[c]
			same := got.Type == w.Type && got.Null == w.Null && (got.Null || got.Equal(w))
			if w.Type == vector.TypeFloat64 && !w.Null && !got.Null {
				same = floatsClose(got.F, w.F) // combine order varies across workers
			}
			if !same {
				t.Errorf("%s: group %v %s = %v, want %v", run, key, res.Schema.Columns[c].Name, got, w)
			}
		}
	}
}

func floatsClose(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-6*(1+abs(b))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestRowBufferRoundTripRandom checks save/load over random buffers.
func TestRowBufferRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		types := []vector.Type{vector.TypeInt64, vector.TypeString, vector.TypeFloat64}
		buf := NewRowBuffer(types)
		row := vector.NewChunk(types)
		n := rng.Intn(5000)
		for i := 0; i < n; i++ {
			row.Reset()
			row.AppendRowValues(
				vector.NewInt64(rng.Int63()),
				vector.NewString(fmt.Sprintf("s%d", rng.Intn(100))),
				vector.NewFloat64(rng.NormFloat64()),
			)
			buf.AppendChunk(row)
		}
		var raw bytes.Buffer
		enc := vector.NewEncoder(&raw)
		buf.Save(enc)
		if enc.Err() != nil {
			t.Fatal(enc.Err())
		}
		got, err := LoadRowBuffer(vector.NewDecoder(bytes.NewReader(raw.Bytes())))
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows() != buf.Rows() {
			t.Fatalf("trial %d: rows %d vs %d", trial, got.Rows(), buf.Rows())
		}
		step := buf.Rows()/37 + 1
		for r := int64(0); r < buf.Rows(); r += step {
			want, have := buf.Row(r), got.Row(r)
			for c := range types {
				if !want[c].Equal(have[c]) {
					t.Fatalf("trial %d: cell (%d,%d) differs", trial, r, c)
				}
			}
		}
	}
}

// TestSortStability checks that a sort and a top-N keep the input order of
// rows with equal keys. At one worker the input is the table in order, so
// each must equal, row for row, a stable sort of the table's rows by the
// key, ten values and NULL. The top-N keeps LIMIT + OFFSET = 200 of 8000
// rows, so its buffer is trimmed at every other chunk before Finalize.
func TestSortStability(t *testing.T) {
	cat := catalog.New()
	tbl, _ := cat.Create("t", catalog.NewSchema(
		catalog.Col("k", vector.TypeInt64),
		catalog.Col("seq", vector.TypeInt64),
	))
	rng := rand.New(rand.NewSource(5))
	var rows [][]vector.Value
	for i := 0; i < 8000; i++ {
		row := []vector.Value{vector.NewInt64(int64(rng.Intn(10))), vector.NewInt64(int64(i))}
		if rng.Intn(50) == 0 {
			row[0] = vector.NewNull(vector.TypeInt64)
		}
		rows = append(rows, row)
		_ = tbl.AppendRow(row...)
	}
	want := slices.Clone(rows)
	sort.SliceStable(want, func(i, j int) bool {
		a, b := want[i][0], want[j][0]
		return a.Null && !b.Null || !a.Null && !b.Null && a.I < b.I // NULLs first
	})
	sorted := plan.NewBuilder(cat).Scan("t").Sort(plan.Asc("k")).Node()
	for _, c := range []struct {
		name   string
		node   plan.Node
		lo, hi int
	}{
		{"sort", sorted, 0, len(want)},
		{"topn", &plan.Limit{Child: sorted, N: 150, Offset: 50}, 50, 200},
	} {
		res := runPlan(t, cat, c.node, 1)
		if res.NumRows() != int64(c.hi-c.lo) {
			t.Fatalf("%s: %d rows, want %d", c.name, res.NumRows(), c.hi-c.lo)
		}
		for i, w := range want[c.lo:c.hi] {
			if got := res.Row(int64(i)); !got[0].Equal(w[0]) || !got[1].Equal(w[1]) {
				t.Fatalf("%s: row %d is %v, the stable sort's is %v", c.name, i, got, w)
			}
		}
	}
}

// TestExprVectorizedMatchesScalarOracle drives expressions through their
// compiled programs over a 512-row chunk and through the row-at-a-time
// scalar oracle, and compares every row.
func TestExprVectorizedMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	types := []vector.Type{vector.TypeInt64, vector.TypeFloat64}
	c := vector.NewChunk(types)
	for i := 0; i < 512; i++ {
		c.AppendRowValues(vector.NewInt64(int64(rng.Intn(100)-50)), vector.NewFloat64(rng.NormFloat64()*10))
	}
	exprs := []expr.Expr{
		expr.Add(expr.NamedCol(0, vector.TypeInt64, ""), expr.Int(7)),
		expr.Mul(expr.ToFloat(expr.NamedCol(0, vector.TypeInt64, "")), expr.NamedCol(1, vector.TypeFloat64, "")),
		expr.Gt(expr.NamedCol(1, vector.TypeFloat64, ""), expr.Float(0)),
		expr.When(expr.Lt(expr.NamedCol(0, vector.TypeInt64, ""), expr.Int(0)), expr.Int(-1), expr.Int(1)),
		expr.And(
			expr.Ge(expr.NamedCol(0, vector.TypeInt64, ""), expr.Int(-25)),
			expr.Le(expr.NamedCol(1, vector.TypeFloat64, ""), expr.Float(5)),
		),
	}
	for ei, e := range exprs {
		prog, err := expr.CompileProgram(e)
		if err != nil {
			t.Fatalf("expr %d: %v", ei, err)
		}
		vec, err := prog.NewInstance().Eval(c)
		if err != nil {
			t.Fatalf("expr %d: %v", ei, err)
		}
		for i := 0; i < c.Len(); i++ {
			want, err := expr.EvalScalar(e, types, c.Row(i))
			if err != nil {
				t.Fatal(err)
			}
			got := vec.Value(i)
			if got.Null != want.Null || (!got.Null && !got.Equal(want)) {
				t.Errorf("expr %d row %d: vectorized %v vs scalar %v", ei, i, got, want)
			}
		}
	}
}
