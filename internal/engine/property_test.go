package engine

import (
	"bytes"
	"fmt"
	"math/rand"
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

// Residual predicates the join oracle checks, by index: none, a DOUBLE
// comparison and a VARCHAR one, each false where either side is NULL.
const numJoinResiduals = 3

func joinResidual(kind int) (func(plan.ColResolver) expr.Expr, func(l, r joinRow) bool) {
	switch kind {
	case 1:
		return func(c plan.ColResolver) expr.Expr { return expr.Lt(c.Col("l_v"), c.Col("r_v")) },
			func(l, r joinRow) bool { return !l.v.Null && !r.v.Null && l.v.F < r.v.F }
	case 2:
		return func(c plan.ColResolver) expr.Expr { return expr.Ne(c.Col("l_s"), c.Col("r_s")) },
			func(l, r joinRow) bool { return !l.s.Null && !r.s.Null && l.s.S != r.s.S }
	}
	return nil, nil
}

func renderRow(vals []vector.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

// nestedLoopJoin is the oracle: probe rows l against build rows r on equal
// non-NULL keys (every pair for a cross join) and the residual pred, each
// output row rendered, sorted.
func nestedLoopJoin(jt plan.JoinType, l, r []joinRow, pred func(l, r joinRow) bool) []string {
	var out []string
	nullBuild := joinRow{vector.NewNull(vector.TypeInt64), vector.NewNull(vector.TypeFloat64), vector.NewNull(vector.TypeString)}
	pair := func(a, b joinRow) string { return renderRow([]vector.Value{a.k, a.v, a.s, b.k, b.v, b.s}) }
	for _, a := range l {
		matches := 0
		for _, b := range r {
			if jt != plan.CrossJoin && (a.k.Null || b.k.Null || a.k.I != b.k.I) {
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

// checkJoinAgainstOracle runs probe l against build r as join jt with
// residual predicate kind on workers workers, and compares every output
// column of every row, as sorted multisets, with the nested-loop oracle.
func checkJoinAgainstOracle(tb testing.TB, l, r []joinRow, jt plan.JoinType, residual, workers int) {
	tb.Helper()
	cat := catalog.New()
	createJoinTable(tb, cat, "l", l)
	createJoinTable(tb, cat, "r", r)
	extra, pred := joinResidual(residual)
	b := plan.NewBuilder(cat)
	lr, rr := b.Scan("l"), b.Scan("r")
	var j *plan.Rel
	if jt == plan.CrossJoin {
		j = lr.Cross(rr)
	} else {
		j = lr.JoinExtra(rr, jt, []string{"l_k"}, []string{"r_k"}, extra)
	}
	res := runPlan(tb, cat, j.Node(), workers)
	got := make([]string, res.NumRows())
	for i := range got {
		got[i] = renderRow(res.Row(int64(i)))
	}
	sort.Strings(got)
	want := nestedLoopJoin(jt, l, r, pred)
	if len(got) != len(want) {
		tb.Fatalf("%v join, residual %d, %d×%d rows: %d rows, oracle %d", jt, residual, len(l), len(r), len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			tb.Fatalf("%v join, residual %d, %d×%d rows: sorted row %d is %q, oracle %q", jt, residual, len(l), len(r), i, got[i], want[i])
		}
	}
}

var oracleJoinTypes = []plan.JoinType{plan.InnerJoin, plan.LeftOuterJoin, plan.SemiJoin, plan.AntiJoin}

// TestJoinMatchesNestedLoopOracle cross-checks the hash join against a
// brute-force nested loop over random tables, row for row and column for
// column: every keyed join type under each residual predicate, with NULL
// keys and payloads on both sides, and a cross join. The last case gives
// one key more than two chunks of build rows, so the probe's pending
// matches flush in the middle of a probe row.
func TestJoinMatchesNestedLoopOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		l := randomJoinRows(rng, 50+rng.Intn(300), 1+rng.Intn(30))
		r := randomJoinRows(rng, 50+rng.Intn(300), 1+rng.Intn(30))
		for _, jt := range oracleJoinTypes {
			checkJoinAgainstOracle(t, l, r, jt, trial%numJoinResiduals, 3)
		}
		checkJoinAgainstOracle(t, l[:20+rng.Intn(30)], r[:1+rng.Intn(40)], plan.CrossJoin, 0, 3)
	}
	l := randomJoinRows(rng, 40, 3)
	r := randomJoinRows(rng, 4600, 1)
	for _, jt := range oracleJoinTypes {
		for residual := 0; residual < numJoinResiduals; residual++ {
			checkJoinAgainstOracle(t, l, r, jt, residual, 2)
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
	rows, nV, nS int64 // COUNT(*), COUNT(v), COUNT(s)
	sumV         float64
	sumI         int64
	minS, maxS   string
	minD, maxD   int64
	distinctI    map[int64]bool
	distinctS    map[string]bool
}

// TestAggregationMatchesMapOracle verifies every aggregate function — SUM
// over doubles and integers, AVG, COUNT, COUNT(*), MIN and MAX over strings
// and dates, COUNT DISTINCT over integers and strings — against plain maps,
// over random tables with NULL keys, NULL arguments, and one group (key 0)
// whose nullable arguments are all NULL.
func TestAggregationMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		cat := catalog.New()
		tbl, err := cat.Create("t", catalog.NewSchema(
			catalog.Col("k", vector.TypeInt64),
			catalog.Col("v", vector.TypeFloat64),
			catalog.Col("i", vector.TypeInt64),
			catalog.Col("s", vector.TypeString),
			catalog.Col("d", vector.TypeDate),
		))
		if err != nil {
			t.Fatal(err)
		}
		want := map[vector.Value]*aggOracle{} // keyed by the boxed group key, NULL included
		keyRange := 1 + rng.Intn(50)
		for r, rows := 0, 500+rng.Intn(4000); r < rows; r++ {
			k := vector.NewInt64(int64(rng.Intn(keyRange)))
			if rng.Intn(20) == 0 {
				k = vector.NewNull(vector.TypeInt64)
			}
			v := vector.NewFloat64(float64(rng.Intn(1000)))
			s := vector.NewString(fmt.Sprintf("s%03d", rng.Intn(40)))
			if rng.Intn(10) == 0 || (!k.Null && k.I == 0) {
				v, s = vector.NewNull(vector.TypeFloat64), vector.NewNull(vector.TypeString)
			}
			i, d := int64(rng.Intn(30)-15), int64(rng.Intn(10000))
			if err := tbl.AppendRow(k, v, vector.NewInt64(i), s, vector.NewDate(d)); err != nil {
				t.Fatal(err)
			}
			g := want[k]
			if g == nil {
				g = &aggOracle{minD: d, maxD: d, distinctI: map[int64]bool{}, distinctS: map[string]bool{}}
				want[k] = g
			}
			g.rows++
			g.sumI += i
			g.distinctI[i] = true
			g.minD, g.maxD = min(g.minD, d), max(g.maxD, d)
			if !v.Null {
				g.nV++
				g.sumV += v.F
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

		tb := plan.NewBuilder(cat).Scan("t")
		res := runPlan(t, cat, tb.Agg([]string{"k"},
			plan.Sum(tb.Col("v"), "sum_v"), plan.Avg(tb.Col("v"), "avg_v"), plan.Sum(tb.Col("i"), "sum_i"),
			plan.Count(tb.Col("v"), "n_v"), plan.Count(tb.Col("s"), "n_s"), plan.CountStar("n"),
			plan.Min(tb.Col("s"), "min_s"), plan.Max(tb.Col("s"), "max_s"),
			plan.Min(tb.Col("d"), "min_d"), plan.Max(tb.Col("d"), "max_d"),
			plan.CountDistinct(tb.Col("i"), "d_i"), plan.CountDistinct(tb.Col("s"), "d_s"),
		).Node(), 4)

		if res.NumRows() != int64(len(want)) {
			t.Fatalf("trial %d: groups = %d, want %d", trial, res.NumRows(), len(want))
		}
		for r := int64(0); r < res.NumRows(); r++ {
			row := res.Row(r)
			g := want[row[0]]
			if g == nil {
				t.Fatalf("trial %d: group %v is not in the input", trial, row[0])
			}
			// SUM, AVG, MIN and MAX over no non-NULL value are NULL.
			orNull := func(n int64, v vector.Value) vector.Value {
				if n == 0 {
					return vector.NewNull(v.Type)
				}
				return v
			}
			wantRow := []vector.Value{
				row[0],
				orNull(g.nV, vector.NewFloat64(g.sumV)), orNull(g.nV, vector.NewFloat64(g.sumV/float64(g.nV))), vector.NewInt64(g.sumI),
				vector.NewInt64(g.nV), vector.NewInt64(g.nS), vector.NewInt64(g.rows),
				orNull(g.nS, vector.NewString(g.minS)), orNull(g.nS, vector.NewString(g.maxS)),
				vector.NewDate(g.minD), vector.NewDate(g.maxD),
				vector.NewInt64(int64(len(g.distinctI))), vector.NewInt64(int64(len(g.distinctS))),
			}
			for c, w := range wantRow {
				got := row[c]
				same := got.Type == w.Type && got.Null == w.Null && (got.Null || got.Equal(w))
				if w.Type == vector.TypeFloat64 && !w.Null && !got.Null {
					same = floatsClose(got.F, w.F) // combine order varies across workers
				}
				if !same {
					t.Errorf("trial %d: group %v %s = %v, want %v", trial, row[0], res.Schema.Columns[c].Name, got, w)
				}
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
		n := rng.Intn(5000)
		for i := 0; i < n; i++ {
			buf.AppendRowValues(
				vector.NewInt64(rng.Int63()),
				vector.NewString(fmt.Sprintf("s%d", rng.Intn(100))),
				vector.NewFloat64(rng.NormFloat64()),
			)
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
			for c := 0; c < len(types); c++ {
				if !buf.Value(r, c).Equal(got.Value(r, c)) {
					t.Fatalf("trial %d: cell (%d,%d) differs", trial, r, c)
				}
			}
		}
	}
}

// TestSortStability verifies the sort is stable with random duplicate keys.
func TestSortStability(t *testing.T) {
	cat := catalog.New()
	tbl, _ := cat.Create("t", catalog.NewSchema(
		catalog.Col("k", vector.TypeInt64),
		catalog.Col("seq", vector.TypeInt64),
	))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		_ = tbl.AppendRow(vector.NewInt64(int64(rng.Intn(10))), vector.NewInt64(int64(i)))
	}
	b := plan.NewBuilder(cat)
	tb := b.Scan("t")
	// Single worker: input order is the table order, so stability requires
	// equal keys to keep ascending seq.
	res := runPlan(t, cat, tb.Sort(plan.Asc("k")).Node(), 1)
	for i := int64(1); i < res.NumRows(); i++ {
		a, bb := res.Row(i-1), res.Row(i)
		if a[0].I == bb[0].I && a[1].I > bb[1].I {
			t.Fatalf("stability violated at %d: %v then %v", i, a, bb)
		}
	}
	// Validate the overall order too.
	keys := make([]int64, res.NumRows())
	for i := int64(0); i < res.NumRows(); i++ {
		keys[i] = res.Row(i)[0].I
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("keys not sorted")
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
		expr.Add(expr.Col(0, vector.TypeInt64), expr.Int(7)),
		expr.Mul(expr.ToFloat(expr.Col(0, vector.TypeInt64)), expr.Col(1, vector.TypeFloat64)),
		expr.Gt(expr.Col(1, vector.TypeFloat64), expr.Float(0)),
		expr.When(expr.Lt(expr.Col(0, vector.TypeInt64), expr.Int(0)), expr.Int(-1), expr.Int(1)),
		expr.And(
			expr.Ge(expr.Col(0, vector.TypeInt64), expr.Int(-25)),
			expr.Le(expr.Col(1, vector.TypeFloat64), expr.Float(5)),
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
