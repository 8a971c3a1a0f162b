package expr

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/riveterdb/riveter/internal/vector"
)

// checkSelectionAgainstOracle holds the compiled selection of cond to
// EvalScalar over every row of c: the selection is the rows, ascending, on
// which the oracle yields TRUE (a NULL is not kept), or both fail — the
// selection at compile time or on the chunk, the oracle on every row. The
// selection runs twice on one instance, the second time into a buffer full
// of stale rows, and must reproduce itself.
func checkSelectionAgainstOracle(t *testing.T, cond Expr, c *vector.Chunk) *Selection {
	t.Helper()
	oracleFails := func(selErr error) {
		t.Helper()
		for i := 0; i < c.Len(); i++ {
			if v, err := EvalScalar(cond, c.Types(), c.Row(i)); err == nil {
				t.Fatalf("%s: selection fails (%v) but the oracle yields %v for row %d", cond, selErr, v, i)
			}
		}
	}
	s, err := CompileSelection(cond)
	if err != nil {
		oracleFails(err)
		return nil
	}
	in := s.NewInstance()
	got, err := in.Select(c, nil)
	if err != nil {
		oracleFails(err)
		return s
	}
	var want []int32
	for i := 0; i < c.Len(); i++ {
		v, err := EvalScalar(cond, c.Types(), c.Row(i))
		if err != nil {
			t.Fatalf("%s row %d: oracle fails (%v) but the selection succeeds", cond, i, err)
		}
		if !v.Null && v.B {
			want = append(want, int32(i))
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: selection %v, oracle %v", cond, got, want)
	}
	stale := make([]int32, c.Len())
	for i := range stale {
		stale[i] = int32(c.Len() - 1 - i)
	}
	again, err := in.Select(c, stale[:1])
	if err != nil || !slices.Equal(again, got) {
		t.Fatalf("%s: second selection on one instance is %v (err %v), first %v", cond, again, err, got)
	}
	return s
}

// selectionChunk is the table test's chunk: a column with NULLs and one
// without of each comparable type, and a gate column. Values cycle through
// each type's specials at different strides, so every pair of them meets;
// the NULLs sit in the first 100 of 150 rows only, so the bitmaps cover two
// of the three words. Columns: 0/1 BIGINT, 2/3 DOUBLE, 4/5 VARCHAR, 6/7
// DATE (NULLs/none), 8 BIGINT gate (row % 3).
func selectionChunk() *vector.Chunk {
	const rows = 150
	types := []vector.Type{
		vector.TypeInt64, vector.TypeInt64, vector.TypeFloat64, vector.TypeFloat64,
		vector.TypeString, vector.TypeString, vector.TypeDate, vector.TypeDate, vector.TypeInt64,
	}
	c := vector.NewChunk(types)
	for i := 0; i < rows; i++ {
		row := make([]vector.Value, len(types))
		for j := 0; j < 8; j++ {
			t := types[j]
			vals := selectionValues[t]
			row[j] = vals[(i*(j+1)+j/2)%len(vals)]
			if j%2 == 0 && i < 100 && i%5 == 2 {
				row[j] = vector.NewNull(t)
			}
		}
		row[8] = vector.NewInt64(int64(i % 3))
		c.AppendRowValues(row...)
	}
	return c
}

func dateValue(s string) vector.Value { return vector.NewDate(vector.MustParseDate(s)) }

// selectionValues are the values of each type the table test compares:
// the type's extremes, NaN and both zeros among the doubles, the empty
// string and strings that share a prefix.
var selectionValues = map[vector.Type][]vector.Value{
	vector.TypeInt64: {
		vector.NewInt64(math.MinInt64), vector.NewInt64(-7), vector.NewInt64(-1), vector.NewInt64(0),
		vector.NewInt64(1), vector.NewInt64(3), vector.NewInt64(42), vector.NewInt64(math.MaxInt64),
	},
	vector.TypeFloat64: {
		vector.NewFloat64(math.NaN()), vector.NewFloat64(math.Copysign(0, -1)), vector.NewFloat64(0),
		vector.NewFloat64(1.5), vector.NewFloat64(-2), vector.NewFloat64(math.Inf(1)),
		vector.NewFloat64(math.Inf(-1)), vector.NewFloat64(1e300),
	},
	vector.TypeString: {
		vector.NewString(""), vector.NewString("a"), vector.NewString("apple"), vector.NewString("apple pie"),
		vector.NewString("b"), vector.NewString("50%"), vector.NewString("a_b"), vector.NewString("zz"),
	},
	vector.TypeDate: {
		dateValue("1970-01-01"), dateValue("1993-11-30"), dateValue("1994-03-15"), dateValue("1995-07-01"),
		dateValue("1996-12-31"), dateValue("1998-06-15"),
	},
}

// selectionModes run a conjunct first (dense: it selects from every row)
// and after a kernel conjunct that drops every third row (refine).
var selectionModes = []struct {
	name string
	wrap func(Expr) Expr
}{
	{"dense", func(e Expr) Expr { return e }},
	{"refine", func(e Expr) Expr { return And(Ne(col(8, vector.TypeInt64), Int(0)), e) }},
}

// TestSelectionKernelsMatchScalar runs every kernel conjunct shape — each
// comparison op over every type, against each constant from either side
// and against a column, IN and NOT IN, IS [NOT] NULL, LIKE and NOT LIKE —
// first and after another, over a column with NULLs and one without, and
// holds it to the scalar oracle. Each must compile to kernels alone.
func TestSelectionKernelsMatchScalar(t *testing.T) {
	c := selectionChunk()
	type tc struct {
		name string
		e    Expr
	}
	var cases []tc
	add := func(e Expr, format string, args ...any) {
		cases = append(cases, tc{fmt.Sprintf(format, args...), e})
	}
	ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	types := []vector.Type{vector.TypeInt64, vector.TypeFloat64, vector.TypeString, vector.TypeDate}
	for ti, typ := range types {
		nullable, dense := col(2*ti, typ), col(2*ti+1, typ)
		columns := []*Column{nullable, dense}
		for _, op := range ops {
			for _, x := range columns {
				for _, v := range selectionValues[typ] {
					add(newCompare(op, x, Lit(v)), "%v/%s/%s-const-%v", typ, op, x, v)
					add(newCompare(op, Lit(v), x), "%v/%s/const-%s-%v", typ, op, x, v)
				}
				for _, y := range columns {
					add(newCompare(op, x, y), "%v/%s/%s-%s", typ, op, x, y)
				}
			}
		}
		for _, x := range columns {
			vals := selectionValues[typ]
			lists := [][]vector.Value{vals[:1], vals[1:4], {vector.NewNull(typ), vals[2]}, {vector.NewNull(typ)}}
			for _, list := range lists {
				add(In(x, list...), "%v/in/%s-%v", typ, x, list)
				add(NotIn(x, list...), "%v/not-in/%s-%v", typ, x, list)
			}
			add(IsNull(x), "%v/is-null/%s", typ, x)
			add(IsNotNull(x), "%v/is-not-null/%s", typ, x)
		}
	}
	for _, x := range []*Column{col(4, vector.TypeString), col(5, vector.TypeString)} {
		for _, pat := range []string{"", "%", "a", "a%", "%e", "%pp%", "a%p%e", "a_b", "%\\%", "_"} {
			add(Like(x, pat), "like/%s-%q", x, pat)
			add(NotLike(x, pat), "not-like/%s-%q", x, pat)
		}
	}
	// A BIGINT constant against a DOUBLE column folds through its cast.
	add(Lt(col(2, vector.TypeFloat64), Int(1)), "promoted-const")
	for _, mode := range selectionModes {
		for _, tc := range cases {
			cond := mode.wrap(tc.e)
			s := checkSelectionAgainstOracle(t, cond, c)
			want := 1
			if a, ok := cond.(*AndExpr); ok {
				want = len(a.Args)
			}
			if s.rest != nil || len(s.conjuncts) != want {
				t.Fatalf("%s/%s: %d kernel conjuncts and program %v, want kernels alone", mode.name, tc.name, len(s.conjuncts), s.rest)
			}
		}
	}
}

// TestSelectionRunsOtherConjunctsLast pins the split: kernel conjuncts run
// first, the others as one program after them, and a conjunct of no
// kernel shape — over a cast or arithmetic, an OR — is kept by
// that program, first or after kernels.
func TestSelectionRunsOtherConjunctsLast(t *testing.T) {
	c := selectionChunk()
	gate, x := col(8, vector.TypeInt64), col(0, vector.TypeInt64)
	for _, tc := range []struct {
		cond    Expr
		kernels int
	}{
		{Gt(ToFloat(x), Float(0.5)), 0},
		{Or(Lt(x, Int(0)), IsNull(x)), 0},
		{And(Or(Lt(x, Int(0)), IsNull(x)), Ne(gate, Int(1))), 1},
		{And(Ne(gate, Int(2)), Gt(Add(x, Int(1)), Int(2)), Le(col(2, vector.TypeFloat64), Float(1.5))), 2},
		{And(Eq(gate, Int(9)), Gt(Add(x, Int(1)), Int(2))), 1}, // no row reaches the program
	} {
		s := checkSelectionAgainstOracle(t, tc.cond, c)
		if len(s.conjuncts) != tc.kernels || s.rest == nil {
			t.Errorf("%s: %d kernel conjuncts and program %v, want %d and a program", tc.cond, len(s.conjuncts), s.rest, tc.kernels)
		}
	}
}

// TestSelectionChecksEveryColumn: a column bound to the wrong type fails
// the selection even where an earlier conjunct leaves no row to read it.
func TestSelectionChecksEveryColumn(t *testing.T) {
	c := selectionChunk()
	for _, cond := range []Expr{
		And(Eq(col(8, vector.TypeInt64), Int(9)), Gt(col(0, vector.TypeFloat64), Float(0))),
		And(Eq(col(8, vector.TypeInt64), Int(9)), Gt(Add(col(1, vector.TypeInt64), col(12, vector.TypeInt64)), Int(0))),
	} {
		s, err := CompileSelection(cond)
		if err != nil {
			t.Fatal(err)
		}
		if sel, err := s.NewInstance().Select(c, nil); err == nil {
			t.Errorf("%s: selected %v, want a binding error", cond, sel)
		}
		checkSelectionAgainstOracle(t, cond, c)
	}
}
