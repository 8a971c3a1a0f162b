package tpch

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

const testSF = 0.01

var (
	testCatOnce sync.Once
	testCat     *catalog.Catalog
)

func queryCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	testCatOnce.Do(func() {
		cat, err := Generate(Config{SF: testSF})
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		testCat = cat
	})
	return testCat
}

func runQuery(t testing.TB, cat *catalog.Catalog, q Query, workers int) *engine.ResultSet {
	t.Helper()
	node := q.Build(plan.NewBuilder(cat), testSF)
	pp, err := engine.CompileWith(node, cat, engine.CompileOptions{})
	if err != nil {
		t.Fatalf("%s: compile: %v", q.Name, err)
	}
	ex := engine.NewExecutor(pp, engine.Options{Workers: workers})
	res, err := ex.Run(context.Background())
	if err != nil {
		t.Fatalf("%s: run: %v", q.Name, err)
	}
	return res
}

func TestAllQueriesRun(t *testing.T) {
	cat := queryCatalog(t)
	// Queries that may legitimately return zero rows at tiny scale.
	mayBeEmpty := map[int]bool{2: true, 15: true, 16: true, 18: true, 20: true, 21: true}
	for _, q := range All() {
		res := runQuery(t, cat, q, 2)
		if res.NumRows() == 0 && !mayBeEmpty[q.ID] {
			t.Errorf("%s returned no rows", q.Name)
		}
		if res.Schema.Arity() == 0 {
			t.Errorf("%s has empty schema", q.Name)
		}
	}
}

func TestQueriesWorkerInvariance(t *testing.T) {
	cat := queryCatalog(t)
	for _, q := range All() {
		ref := runQuery(t, cat, q, 1).SortedKey()
		got := runQuery(t, cat, q, 4).SortedKey()
		if got != ref {
			t.Errorf("%s: 4-worker result differs from single-worker", q.Name)
		}
	}
}

func TestQ1Semantics(t *testing.T) {
	cat := queryCatalog(t)
	res := runQuery(t, cat, mustGet(t, 1), 2)
	// Exactly the 4 (returnflag, linestatus) combos: (A,F),(N,F),(N,O),(R,F).
	if res.NumRows() != 4 {
		t.Fatalf("Q1 rows = %d, want 4", res.NumRows())
	}
	var want [][2]string
	for i := int64(0); i < res.NumRows(); i++ {
		row := res.Row(i)
		want = append(want, [2]string{row[0].S, row[1].S})
		// count_order > 0 and avg consistency: sum_qty/count == avg_qty.
		count := float64(row[9].I)
		if count <= 0 {
			t.Fatalf("Q1 group %v has zero count", want[i])
		}
		if diff := row[2].F/count - row[6].F; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("Q1 avg_qty inconsistent for group %v", want[i])
		}
	}
	expect := [][2]string{{"A", "F"}, {"N", "F"}, {"N", "O"}, {"R", "F"}}
	for i := range expect {
		if want[i] != expect[i] {
			t.Errorf("Q1 group order: got %v want %v", want, expect)
			break
		}
	}
}

func mustGet(t testing.TB, id int) Query {
	t.Helper()
	q, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestQ1MatchesHandComputation(t *testing.T) {
	cat := queryCatalog(t)
	li, _ := cat.Table("lineitem")
	cutoff := vector.MustParseDate("1998-09-02")
	type agg struct {
		qty, price, disc float64
		n                int64
	}
	groups := map[[2]string]*agg{}
	s := li.Schema()
	rf, ls := s.IndexOf("l_returnflag"), s.IndexOf("l_linestatus")
	qy, ep, dc, sd := s.IndexOf("l_quantity"), s.IndexOf("l_extendedprice"), s.IndexOf("l_discount"), s.IndexOf("l_shipdate")
	for r := int64(0); r < li.NumRows(); r++ {
		if li.Value(r, sd).I > cutoff {
			continue
		}
		key := [2]string{li.Value(r, rf).S, li.Value(r, ls).S}
		g := groups[key]
		if g == nil {
			g = &agg{}
			groups[key] = g
		}
		g.qty += li.Value(r, qy).F
		g.price += li.Value(r, ep).F
		g.disc += li.Value(r, dc).F
		g.n++
	}
	res := runQuery(t, cat, mustGet(t, 1), 3)
	for i := int64(0); i < res.NumRows(); i++ {
		row := res.Row(i)
		key := [2]string{row[0].S, row[1].S}
		g := groups[key]
		if g == nil {
			t.Fatalf("unexpected group %v", key)
		}
		if row[9].I != g.n {
			t.Errorf("%v count = %d, want %d", key, row[9].I, g.n)
		}
		if !close(row[2].F, g.qty) || !close(row[3].F, g.price) {
			t.Errorf("%v sums mismatch", key)
		}
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := b
	if scale < 0 {
		scale = -scale
	}
	return d <= 1e-6*(scale+1)
}

func TestQ6MatchesHandComputation(t *testing.T) {
	cat := queryCatalog(t)
	li, _ := cat.Table("lineitem")
	s := li.Schema()
	qy, ep, dc, sd := s.IndexOf("l_quantity"), s.IndexOf("l_extendedprice"), s.IndexOf("l_discount"), s.IndexOf("l_shipdate")
	lo, hi := vector.MustParseDate("1994-01-01"), vector.MustParseDate("1995-01-01")
	var want float64
	for r := int64(0); r < li.NumRows(); r++ {
		d := li.Value(r, sd).I
		disc := li.Value(r, dc).F
		if d >= lo && d < hi && disc >= 0.05 && disc <= 0.07 && li.Value(r, qy).F < 24 {
			want += li.Value(r, ep).F * disc
		}
	}
	res := runQuery(t, cat, mustGet(t, 6), 2)
	if res.NumRows() != 1 {
		t.Fatalf("Q6 rows = %d", res.NumRows())
	}
	if got := res.Row(0)[0].F; !close(got, want) {
		t.Errorf("Q6 revenue = %v, want %v", got, want)
	}
}

func TestQ4PrioritiesSorted(t *testing.T) {
	cat := queryCatalog(t)
	res := runQuery(t, cat, mustGet(t, 4), 2)
	if res.NumRows() == 0 || res.NumRows() > 5 {
		t.Fatalf("Q4 rows = %d", res.NumRows())
	}
	for i := int64(1); i < res.NumRows(); i++ {
		if res.Row(i - 1)[0].S >= res.Row(i)[0].S {
			t.Error("Q4 not sorted by priority")
		}
	}
}

func TestQ13IncludesZeroOrderCustomers(t *testing.T) {
	cat := queryCatalog(t)
	res := runQuery(t, cat, mustGet(t, 13), 2)
	foundZero := false
	var totalCust int64
	for i := int64(0); i < res.NumRows(); i++ {
		row := res.Row(i)
		totalCust += row[1].I
		if row[0].I == 0 {
			foundZero = true
		}
	}
	if !foundZero {
		t.Error("Q13 must have a zero-orders bucket (custkey%3==0 customers)")
	}
	cust, _ := cat.Table("customer")
	if totalCust != cust.NumRows() {
		t.Errorf("Q13 buckets cover %d customers, want %d", totalCust, cust.NumRows())
	}
}

func TestQ14BetweenZeroAndHundred(t *testing.T) {
	cat := queryCatalog(t)
	res := runQuery(t, cat, mustGet(t, 14), 2)
	if res.NumRows() != 1 {
		t.Fatalf("Q14 rows = %d", res.NumRows())
	}
	v := res.Row(0)[0].F
	if v < 0 || v > 100 {
		t.Errorf("Q14 promo_revenue = %v, want a percentage", v)
	}
}

func TestQ22CodesSubset(t *testing.T) {
	cat := queryCatalog(t)
	res := runQuery(t, cat, mustGet(t, 22), 2)
	codes := map[string]bool{"13": true, "31": true, "23": true, "29": true, "30": true, "18": true, "17": true}
	for i := int64(0); i < res.NumRows(); i++ {
		row := res.Row(i)
		if !codes[row[0].S] {
			t.Errorf("Q22 unexpected country code %q", row[0].S)
		}
		if row[1].I <= 0 {
			t.Errorf("Q22 numcust = %v", row[1])
		}
	}
}

func TestEveryQuerySuspendsAndResumesPipelineLevel(t *testing.T) {
	cat := queryCatalog(t)
	for _, q := range All() {
		node := q.Build(plan.NewBuilder(cat), testSF)
		ref := func() string {
			pp, err := engine.CompileWith(node, cat, engine.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ex := engine.NewExecutor(pp, engine.Options{Workers: 2})
			res, err := ex.Run(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			return res.SortedKey()
		}()

		// Suspend at the middle breaker, resume, compare.
		pp1, err := engine.CompileWith(node, cat, engine.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mid := len(pp1.Pipelines) / 2
		if mid >= len(pp1.Pipelines)-1 {
			mid = len(pp1.Pipelines) - 2
		}
		if mid < 0 {
			continue // single-pipeline plan: nothing to suspend at
		}
		ex1 := engine.NewExecutor(pp1, engine.Options{
			Workers: 2,
			OnBreaker: func(ev *engine.BreakerEvent) engine.BreakerAction {
				if ev.PipelineIdx == mid {
					return engine.ActionSuspend
				}
				return engine.ActionContinue
			},
		})
		_, err = ex1.Run(context.Background())
		if !errors.Is(err, engine.ErrSuspended) {
			t.Fatalf("%s: expected suspension at breaker %d, got %v", q.Name, mid, err)
		}
		var buf bytes.Buffer
		if err := ex1.SaveState(vector.NewEncoder(&buf)); err != nil {
			t.Fatalf("%s: save: %v", q.Name, err)
		}

		pp2, err := engine.CompileWith(node, cat, engine.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ex2 := engine.NewExecutor(pp2, engine.Options{Workers: 3})
		if err := ex2.LoadState(vector.NewDecoder(bytes.NewReader(buf.Bytes()))); err != nil {
			t.Fatalf("%s: load: %v", q.Name, err)
		}
		res, err := ex2.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: resume: %v", q.Name, err)
		}
		if got := res.SortedKey(); got != ref {
			t.Errorf("%s: resumed result differs from straight run", q.Name)
		}
	}
}

func TestEveryQuerySuspendsAndResumesProcessLevel(t *testing.T) {
	cat := queryCatalog(t)
	for _, q := range All() {
		node := q.Build(plan.NewBuilder(cat), testSF)
		pp0, err := engine.CompileWith(node, cat, engine.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ex0 := engine.NewExecutor(pp0, engine.Options{Workers: 2})
		resRef, err := ex0.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ref := resRef.SortedKey()

		pp1, _ := engine.CompileWith(node, cat, engine.CompileOptions{})
		ex1 := engine.NewExecutor(pp1, engine.Options{Workers: 2})
		ex1.RequestSuspend(engine.KindProcess)
		_, err = ex1.Run(context.Background())
		if !errors.Is(err, engine.ErrSuspended) {
			t.Fatalf("%s: expected process suspension, got %v", q.Name, err)
		}
		var buf bytes.Buffer
		if err := ex1.SaveState(vector.NewEncoder(&buf)); err != nil {
			t.Fatalf("%s: save: %v", q.Name, err)
		}
		pp2, _ := engine.CompileWith(node, cat, engine.CompileOptions{})
		ex2 := engine.NewExecutor(pp2, engine.Options{Workers: 2})
		if err := ex2.LoadState(vector.NewDecoder(bytes.NewReader(buf.Bytes()))); err != nil {
			t.Fatalf("%s: load: %v", q.Name, err)
		}
		res, err := ex2.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: resume: %v", q.Name, err)
		}
		if got := res.SortedKey(); got != ref {
			t.Errorf("%s: process-resumed result differs", q.Name)
		}
	}
}

func TestGetErrors(t *testing.T) {
	if _, err := Get(0); err == nil {
		t.Error("Get(0) must fail")
	}
	if _, err := Get(23); err == nil {
		t.Error("Get(23) must fail")
	}
	q, err := Get(17)
	if err != nil || q.Name != "Q17" {
		t.Errorf("Get(17) = %v, %v", q, err)
	}
	if len(All()) != 22 {
		t.Error("All() must return 22 queries")
	}
}

func TestQueryPlansFingerprintStable(t *testing.T) {
	cat := queryCatalog(t)
	for _, q := range All() {
		n1 := q.Build(plan.NewBuilder(cat), testSF)
		n2 := q.Build(plan.NewBuilder(cat), testSF)
		if plan.Fingerprint(n1) != plan.Fingerprint(n2) {
			t.Errorf("%s: rebuilt plan has a different fingerprint", q.Name)
		}
	}
}

// TestTableSourceMorselBytesMatchChunks: the processed bytes a table scan
// reports per morsel, from its table's cached column sizes, are exactly
// the MemBytes of the chunk the morsel is read into — for every morsel of
// every table, under the full projection, each single column, and a
// reordered pair.
func TestTableSourceMorselBytesMatchChunks(t *testing.T) {
	cat := queryCatalog(t)
	for _, name := range cat.Names() {
		tbl, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		arity := tbl.Schema().Arity()
		all := make([]int, arity)
		for j := range all {
			all[j] = j
		}
		projs := [][]int{all, {arity - 1, 0}}
		for j := range all {
			projs = append(projs, []int{j})
		}
		for _, proj := range projs {
			src := engine.NewTableSource(tbl, proj)
			chunk := vector.NewViewChunk(src.OutTypes())
			for m := int64(0); m < src.MorselCount(); m++ {
				if _, err := src.ReadMorsel(m, chunk); err != nil {
					t.Fatal(err)
				}
				if got, want := src.MorselBytes(m), chunk.MemBytes(); got != want {
					t.Fatalf("%s %v morsel %d: MorselBytes = %d, chunk holds %d", name, proj, m, got, want)
				}
			}
		}
	}
}
