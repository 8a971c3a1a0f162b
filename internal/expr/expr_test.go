package expr

import (
	"fmt"
	"strings"
	"testing"

	"github.com/riveterdb/riveter/internal/vector"
)

// testChunk builds a chunk with columns: 0 int64, 1 float64, 2 string, 3 date, 4 bool.
// col is an unnamed column reference.
func col(index int, t vector.Type) *Column { return &Column{Index: index, Typ: t} }

func testChunk() *vector.Chunk {
	c := vector.NewChunk([]vector.Type{
		vector.TypeInt64, vector.TypeFloat64, vector.TypeString, vector.TypeDate, vector.TypeBool,
	})
	c.AppendRowValues(vector.NewInt64(1), vector.NewFloat64(1.5), vector.NewString("apple"), vector.NewDate(vector.MustParseDate("1994-03-15")), vector.NewBool(true))
	c.AppendRowValues(vector.NewInt64(2), vector.NewFloat64(-2.0), vector.NewString("banana"), vector.NewDate(vector.MustParseDate("1995-07-01")), vector.NewBool(false))
	c.AppendRowValues(vector.NewInt64(3), vector.NewNull(vector.TypeFloat64), vector.NewNull(vector.TypeString), vector.NewDate(vector.MustParseDate("1996-12-31")), vector.NewBool(true))
	return c
}

// evalProgram compiles e and evaluates it over c on a fresh instance.
func evalProgram(e Expr, c *vector.Chunk) (*vector.Vector, error) {
	p, err := CompileProgram(e)
	if err != nil {
		return nil, err
	}
	return p.NewInstance().Eval(c)
}

func mustEval(t *testing.T, e Expr, c *vector.Chunk) *vector.Vector {
	t.Helper()
	v, err := evalProgram(e, c)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	if v.Len() != c.Len() {
		t.Fatalf("Eval(%s): %d rows for %d input rows", e, v.Len(), c.Len())
	}
	return v
}

func TestColumnAndConst(t *testing.T) {
	c := testChunk()
	v := mustEval(t, col(0, vector.TypeInt64), c)
	if v.Int64s()[2] != 3 {
		t.Error("column eval wrong")
	}
	v = mustEval(t, Int(42), c)
	for i := 0; i < 3; i++ {
		if v.Int64s()[i] != 42 {
			t.Error("const eval wrong")
		}
	}
	if _, err := evalProgram(col(9, vector.TypeInt64), c); err == nil {
		t.Error("out of range column must fail")
	}
	if _, err := evalProgram(col(0, vector.TypeString), c); err == nil {
		t.Error("type-mismatched column must fail")
	}
}

func TestArith(t *testing.T) {
	c := testChunk()
	v := mustEval(t, Add(col(0, vector.TypeInt64), Int(10)), c)
	if v.Int64s()[0] != 11 || v.Int64s()[2] != 13 {
		t.Error("int add wrong")
	}
	v = mustEval(t, Mul(col(1, vector.TypeFloat64), Float(2)), c)
	if v.Float64s()[0] != 3.0 || v.Float64s()[1] != -4.0 {
		t.Error("float mul wrong")
	}
	if !v.IsNull(2) {
		t.Error("null propagation in arith failed")
	}
	// Mixed int/float promotes to float.
	v = mustEval(t, Sub(col(0, vector.TypeInt64), col(1, vector.TypeFloat64)), c)
	if v.Type() != vector.TypeFloat64 || v.Float64s()[0] != -0.5 {
		t.Errorf("promotion wrong: %v %v", v.Type(), v.Float64s())
	}
	// Integer division happens in the double domain.
	v = mustEval(t, Div(Int(7), Int(2)), c)
	if v.Type() != vector.TypeFloat64 || v.Float64s()[0] != 3.5 {
		t.Error("div wrong")
	}
	// Division by zero yields NULL.
	v = mustEval(t, Div(Int(7), Int(0)), c)
	if !v.IsNull(0) {
		t.Error("div by zero must be NULL")
	}
}

func TestCompare(t *testing.T) {
	c := testChunk()
	v := mustEval(t, Gt(col(0, vector.TypeInt64), Int(1)), c)
	if v.Bools()[0] || !v.Bools()[1] || !v.Bools()[2] {
		t.Error("int gt wrong")
	}
	v = mustEval(t, Eq(col(2, vector.TypeString), Str("banana")), c)
	if v.Bools()[0] || !v.Bools()[1] {
		t.Error("string eq wrong")
	}
	if !v.IsNull(2) {
		t.Error("NULL = x must be NULL")
	}
	v = mustEval(t, Between(col(3, vector.TypeDate), Date("1995-01-01"), Date("1995-12-31")), c)
	if v.Bools()[0] || !v.Bools()[1] || v.Bools()[2] {
		t.Error("date between wrong")
	}
	v = mustEval(t, Le(col(1, vector.TypeFloat64), Float(0)), c)
	if v.Bools()[0] || !v.Bools()[1] || !v.IsNull(2) {
		t.Error("float le wrong")
	}
	v = mustEval(t, Ne(col(4, vector.TypeBool), Lit(vector.NewBool(false))), c)
	if !v.Bools()[0] || v.Bools()[1] {
		t.Error("bool ne wrong")
	}
}

func TestBooleanThreeValued(t *testing.T) {
	c := testChunk()
	isNullF := IsNull(col(1, vector.TypeFloat64))  // row2 true
	gt := Gt(col(1, vector.TypeFloat64), Float(0)) // t, f, NULL

	v := mustEval(t, And(gt, Lit(vector.NewBool(true))), c)
	if !v.Bools()[0] || v.Bools()[1] || !v.IsNull(2) {
		t.Error("AND with NULL wrong")
	}
	// false AND NULL = false
	v = mustEval(t, And(Lit(vector.NewBool(false)), gt), c)
	if v.IsNull(2) || v.Bools()[2] {
		t.Error("false AND NULL must be false")
	}
	// true OR NULL = true
	v = mustEval(t, Or(Lit(vector.NewBool(true)), gt), c)
	if v.IsNull(2) || !v.Bools()[2] {
		t.Error("true OR NULL must be true")
	}
	// false OR NULL = NULL
	v = mustEval(t, Or(Lit(vector.NewBool(false)), gt), c)
	if !v.IsNull(2) {
		t.Error("false OR NULL must be NULL")
	}
	v = mustEval(t, Not(gt), c)
	if v.Bools()[0] || !v.Bools()[1] || !v.IsNull(2) {
		t.Error("NOT wrong")
	}
	v = mustEval(t, isNullF, c)
	if v.Bools()[0] || !v.Bools()[2] {
		t.Error("IS NULL wrong")
	}
	v = mustEval(t, IsNotNull(col(1, vector.TypeFloat64)), c)
	if !v.Bools()[0] || v.Bools()[2] {
		t.Error("IS NOT NULL wrong")
	}
}

func TestAndOrFlatten(t *testing.T) {
	a := Gt(Int(1), Int(0))
	e := And(a, And(a, a))
	if len(e.(*AndExpr).Args) != 3 {
		t.Error("nested AND must flatten")
	}
	o := Or(a, Or(a, a, a))
	if len(o.(*OrExpr).Args) != 4 {
		t.Error("nested OR must flatten")
	}
	if And(a) != a || Or(a) != a {
		t.Error("single-arg connective must collapse")
	}
}

func TestIn(t *testing.T) {
	c := testChunk()
	v := mustEval(t, InStrings(col(2, vector.TypeString), "apple", "cherry"), c)
	if !v.Bools()[0] || v.Bools()[1] || !v.IsNull(2) {
		t.Error("IN wrong")
	}
	v = mustEval(t, NotIn(col(0, vector.TypeInt64), vector.NewInt64(2)), c)
	if !v.Bools()[0] || v.Bools()[1] || !v.Bools()[2] {
		t.Error("NOT IN wrong")
	}
}

func TestCase(t *testing.T) {
	c := testChunk()
	e := When(Gt(col(0, vector.TypeInt64), Int(1)), Str("big"), Str("small"))
	v := mustEval(t, e, c)
	if v.Strings()[0] != "small" || v.Strings()[1] != "big" {
		t.Error("CASE wrong")
	}
	// No ELSE -> NULL; NULL condition counts as false.
	e2 := Case([]Expr{Gt(col(1, vector.TypeFloat64), Float(0))}, []Expr{Int(1)}, nil)
	v = mustEval(t, e2, c)
	if v.IsNull(0) || !v.IsNull(1) || !v.IsNull(2) {
		t.Error("CASE null handling wrong")
	}
}

func TestExtractAndSubstr(t *testing.T) {
	c := testChunk()
	v := mustEval(t, ExtractYear(col(3, vector.TypeDate)), c)
	if v.Int64s()[0] != 1994 || v.Int64s()[2] != 1996 {
		t.Error("EXTRACT YEAR wrong")
	}
	v = mustEval(t, ExtractMonth(col(3, vector.TypeDate)), c)
	if v.Int64s()[1] != 7 {
		t.Error("EXTRACT MONTH wrong")
	}
	v = mustEval(t, Substr(col(2, vector.TypeString), 2, 3), c)
	if v.Strings()[0] != "ppl" || v.Strings()[1] != "ana" || !v.IsNull(2) {
		t.Errorf("SUBSTRING wrong: %v", v.Strings())
	}
	v = mustEval(t, Substr(col(2, vector.TypeString), 4, 100), c)
	if v.Strings()[0] != "le" {
		t.Error("SUBSTRING clamp wrong")
	}
}

func TestCast(t *testing.T) {
	c := testChunk()
	v := mustEval(t, ToFloat(col(0, vector.TypeInt64)), c)
	if v.Type() != vector.TypeFloat64 || v.Float64s()[2] != 3.0 {
		t.Error("cast int->float wrong")
	}
	// ToFloat of a float is identity.
	e := ToFloat(col(1, vector.TypeFloat64))
	if _, ok := e.(*Column); !ok {
		t.Error("ToFloat over DOUBLE should be a no-op")
	}
	v = mustEval(t, &Cast{In: col(1, vector.TypeFloat64), To: vector.TypeInt64}, c)
	if v.Int64s()[0] != 1 || !v.IsNull(2) {
		t.Error("cast float->int wrong")
	}
	if _, err := CompileProgram(&Cast{In: col(2, vector.TypeString), To: vector.TypeInt64}); err == nil {
		t.Error("string->int cast must fail")
	}
}

func TestStringsAreDeterministic(t *testing.T) {
	e1 := And(Gt(col(0, vector.TypeInt64), Int(1)), Like(col(2, vector.TypeString), "%an%"))
	e2 := And(Gt(col(0, vector.TypeInt64), Int(1)), Like(col(2, vector.TypeString), "%an%"))
	if e1.String() != e2.String() {
		t.Error("identical expressions must print identically")
	}
	for _, e := range []Expr{
		e1, Int(1), Str("x"), Date("1995-01-01"),
		In(col(0, vector.TypeInt64), vector.NewInt64(5)),
		When(Gt(Int(1), Int(0)), Int(1), Int(2)),
		IsNull(col(0, vector.TypeInt64)),
		ExtractYear(col(3, vector.TypeDate)),
		Substr(col(2, vector.TypeString), 1, 2),
		Not(Gt(Int(1), Int(0))),
		&Cast{In: col(0, vector.TypeInt64), To: vector.TypeFloat64},
	} {
		if strings.TrimSpace(e.String()) == "" {
			t.Errorf("%T prints empty", e)
		}
	}
}

func TestEvalScalar(t *testing.T) {
	types := []vector.Type{vector.TypeInt64, vector.TypeFloat64}
	got, err := EvalScalar(
		Add(ToFloat(col(0, vector.TypeInt64)), col(1, vector.TypeFloat64)),
		types,
		[]vector.Value{vector.NewInt64(2), vector.NewFloat64(0.5)},
	)
	if err != nil || got.F != 2.5 {
		t.Fatalf("EvalScalar = %v, %v", got, err)
	}
}

// TestConstructorsRejectIllTypedOperands: every constructor panics on an
// operand of the wrong type, with the words sql.Compile turns into the
// Prepare error.
func TestConstructorsRejectIllTypedOperands(t *testing.T) {
	f, s, b := col(1, vector.TypeFloat64), col(2, vector.TypeString), col(4, vector.TypeBool)
	for _, tc := range []struct {
		want  string
		build func()
	}{
		{"incompatible types VARCHAR and BIGINT", func() { Add(Str("a"), Int(1)) }},
		{"NOT over DOUBLE", func() { Not(f) }},
		{"boolean connective over DOUBLE", func() { And(b, f) }},
		{"boolean connective over VARCHAR", func() { Or(s, b) }},
		{"boolean connective over DOUBLE", func() { And(f) }},
		{"LIKE over DOUBLE", func() { Like(f, "a%") }},
		{"LIKE over BOOLEAN", func() { NotLike(b, "a%") }},
		{"EXTRACT over DOUBLE", func() { ExtractYear(f) }},
		{"EXTRACT over VARCHAR", func() { ExtractMonth(s) }},
		{"SUBSTRING over DOUBLE", func() { Substr(f, 1, 2) }},
		{"CASE condition of type DOUBLE", func() { When(f, Int(1), Int(2)) }},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), tc.want) {
					t.Errorf("panic = %v, want one containing %q", r, tc.want)
				}
			}()
			tc.build()
		}()
	}
}

// TestRemapColumns: RemapColumns rewrites the column references of every
// node type and nothing else, leaves the input tree as it was, lists the
// columns read under an identity remap, and fails on a node it does not
// know and on the remap's own error.
func TestRemapColumns(t *testing.T) {
	col := func(i int) Expr { return col(i, testChunk().Col(i).Type()) }
	cond := And(
		Or(Gt(col(0), Int(1)), IsNull(col(1)), col(4)),
		Not(Like(col(2), "%an%")),
		In(ExtractYear(col(3)), vector.NewInt64(1994), vector.NewInt64(1996)),
		Eq(Substr(col(2), 1, 2), Str("ap")),
	)
	e := When(cond, Add(&Cast{In: col(0), To: vector.TypeFloat64}, col(1)), Float(-1))
	before := e.String()

	// Over a chunk with the columns in reverse order, the remapped tree
	// computes what e computes over the original.
	orig := testChunk()
	rev := vector.NewChunk(nil)
	for i := orig.NumCols() - 1; i >= 0; i-- {
		rev = appendCol(rev, orig.Col(i))
	}
	remapped, err := RemapColumns(e, func(i int) (int, error) { return orig.NumCols() - 1 - i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != before {
		t.Fatalf("RemapColumns changed its input: %s", e)
	}
	want, got := mustEval(t, e, orig), mustEval(t, remapped, rev)
	for r := 0; r < orig.Len(); r++ {
		if w, g := want.Value(r), got.Value(r); w != g {
			t.Errorf("row %d: remapped %v, original %v", r, g, w)
		}
	}

	var read []int
	if _, err := RemapColumns(e, func(i int) (int, error) { read = append(read, i); return i, nil }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(read) != "[0 1 4 2 3 2 0 1]" {
		t.Errorf("identity remap read columns %v", read)
	}

	if _, err := RemapColumns(And(col(4), foreignExpr{}), func(i int) (int, error) { return i, nil }); err == nil ||
		!strings.Contains(err.Error(), "expr.foreignExpr") {
		t.Errorf("RemapColumns over an unknown node = %v", err)
	}
	if _, err := RemapColumns(e, func(i int) (int, error) { return 0, fmt.Errorf("no column %d", i) }); err == nil ||
		err.Error() != "no column 0" {
		t.Errorf("RemapColumns with a failing remap = %v", err)
	}
}

// appendCol returns c with column v added after its columns.
func appendCol(c *vector.Chunk, v *vector.Vector) *vector.Chunk {
	out := vector.NewChunk(append(c.Types(), v.Type()))
	for r := 0; r < v.Len(); r++ {
		out.AppendRowValues(append(c.Row(r), v.Value(r))...)
	}
	return out
}

// TestRemapColumnsIdentityAllocatesNothing: a remap that changes no index
// returns the tree itself, so listing a residual's columns costs a plan
// compile no allocation.
func TestRemapColumnsIdentityAllocatesNothing(t *testing.T) {
	col := func(i int) Expr { return col(i, testChunk().Col(i).Type()) }
	e := When(And(Or(Gt(col(0), Int(1)), IsNull(col(1))), Not(Like(col(2), "%an%"))), col(1), Float(-1))
	identity := func(i int) (int, error) { return i, nil }
	if got, err := RemapColumns(e, identity); err != nil || got != e {
		t.Fatalf("identity remap = %v, %v; want the tree itself", got, err)
	}
	if n := testing.AllocsPerRun(10, func() { _, _ = RemapColumns(e, identity) }); n != 0 {
		t.Errorf("identity remap allocates %v times", n)
	}
}
