package expr

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/riveterdb/riveter/internal/vector"
)

// programChunk builds an adversarial chunk for program-vs-oracle equivalence:
// nulls in every column but the last, NaN and signed zeros, int64 extremes,
// empty and escape-y strings. Columns: 0 int64, 1 float64, 2 string, 3 date,
// 4 bool, 5 float64 (divisors incl. zero), 6 int64 (no nulls).
func programChunk() *vector.Chunk {
	c := vector.NewChunk([]vector.Type{
		vector.TypeInt64, vector.TypeFloat64, vector.TypeString,
		vector.TypeDate, vector.TypeBool, vector.TypeFloat64, vector.TypeInt64,
	})
	d := func(s string) vector.Value { return vector.NewDate(vector.MustParseDate(s)) }
	rows := [][]vector.Value{
		{vector.NewInt64(1), vector.NewFloat64(1.5), vector.NewString("apple"), d("1994-03-15"), vector.NewBool(true), vector.NewFloat64(2), vector.NewInt64(10)},
		{vector.NewInt64(-7), vector.NewFloat64(math.NaN()), vector.NewString(""), d("1995-07-01"), vector.NewBool(false), vector.NewFloat64(0), vector.NewInt64(-3)},
		{vector.NewNull(vector.TypeInt64), vector.NewFloat64(math.Copysign(0, -1)), vector.NewString("50%"), d("1996-12-31"), vector.NewNull(vector.TypeBool), vector.NewFloat64(-1), vector.NewInt64(0)},
		{vector.NewInt64(42), vector.NewNull(vector.TypeFloat64), vector.NewNull(vector.TypeString), d("1997-01-02"), vector.NewBool(true), vector.NewNull(vector.TypeFloat64), vector.NewInt64(7)},
		{vector.NewInt64(3), vector.NewFloat64(1e300), vector.NewString("a_b"), d("1993-11-30"), vector.NewBool(false), vector.NewFloat64(-0.5), vector.NewInt64(1)},
		{vector.NewNull(vector.TypeInt64), vector.NewFloat64(-1e300), vector.NewString("apple pie"), d("1998-06-15"), vector.NewNull(vector.TypeBool), vector.NewFloat64(3), vector.NewInt64(2)},
		{vector.NewInt64(math.MaxInt64), vector.NewFloat64(math.Inf(1)), vector.NewString("%_"), vector.NewNull(vector.TypeDate), vector.NewBool(true), vector.NewFloat64(math.Copysign(0, -1)), vector.NewInt64(math.MinInt64)},
		{vector.NewInt64(math.MinInt64), vector.NewFloat64(0), vector.NewString("apple"), d("1970-01-01"), vector.NewBool(false), vector.NewFloat64(math.NaN()), vector.NewInt64(-1)},
	}
	for _, r := range rows {
		c.AppendRowValues(r...)
	}
	return c
}

// vectorBytes canonically serializes a vector: type, length, padded null
// bitmap, and backing for every row (null rows included).
func vectorBytes(t *testing.T, v *vector.Vector) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := vector.NewEncoder(&buf)
	enc.Vector(v)
	if err := enc.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameValue is value identity as the checkpoint codec sees it: null flag,
// type, and for doubles the bit pattern (so −0 ≠ 0), any NaN equal to any
// other.
func sameValue(a, b vector.Value) bool {
	if a.Null || b.Null || a.Type != b.Type {
		return a.Null == b.Null && a.Type == b.Type
	}
	if a.Type == vector.TypeFloat64 {
		return math.Float64bits(a.F) == math.Float64bits(b.F) || (math.IsNaN(a.F) && math.IsNaN(b.F))
	}
	return a.Equal(b)
}

// backingValue boxes what row i's storage holds, null bit aside.
func backingValue(v *vector.Vector, i int) vector.Value {
	out := vector.Value{Type: v.Type()}
	switch v.Type() {
	case vector.TypeInt64, vector.TypeDate:
		out.I = v.Int64s()[i]
	case vector.TypeFloat64:
		out.F = v.Float64s()[i]
	case vector.TypeString:
		out.S = v.Strings()[i]
	case vector.TypeBool:
		out.B = v.Bools()[i]
	}
	return out
}

// checkProgramAgainstOracle holds the compiled program to EvalScalar over
// every row of c: the same value, or both fail — the program at compile time
// or on the chunk, the oracle on each row. Null rows of the program's output
// must hold the zero value (the storage invariant the chunk hash and the
// checkpoint codec observe), and a second evaluation on the same instance
// must reproduce the first.
func checkProgramAgainstOracle(t *testing.T, e Expr, c *vector.Chunk) {
	t.Helper()
	oracleFails := func(progErr error) {
		t.Helper()
		for i := 0; i < c.Len(); i++ {
			if v, err := EvalScalar(e, c.Types(), c.Row(i)); err == nil {
				t.Fatalf("%s: program fails (%v) but the oracle yields %v for row %d", e, progErr, v, i)
			}
		}
	}
	p, err := CompileProgram(e)
	if err != nil {
		oracleFails(err)
		return
	}
	if p.OutType() != e.Type() {
		t.Fatalf("program type %v != expr type %v", p.OutType(), e.Type())
	}
	inst := p.NewInstance()
	got, err := inst.Eval(c)
	if err != nil {
		oracleFails(err)
		return
	}
	if got.Len() != c.Len() || got.Type() != e.Type() {
		t.Fatalf("%s: %d rows of %v for %d rows of %v", e, got.Len(), got.Type(), c.Len(), e.Type())
	}
	zero := vector.Value{Type: got.Type()}
	for i := 0; i < c.Len(); i++ {
		want, err := EvalScalar(e, c.Types(), c.Row(i))
		if err != nil {
			t.Fatalf("%s row %d: oracle fails (%v) but the program yields %v", e, i, err, got.Value(i))
		}
		if !sameValue(got.Value(i), want) {
			t.Fatalf("%s row %d: program %v (%v), oracle %v (%v)", e, i, got.Value(i), got.Value(i).Type, want, want.Type)
		}
		if got.IsNull(i) && !sameValue(backingValue(got, i), zero) {
			t.Fatalf("%s row %d: null row holds %v, want the zero value", e, i, backingValue(got, i))
		}
	}
	first := vectorBytes(t, got)
	again, err := inst.Eval(c)
	if err != nil || !bytes.Equal(vectorBytes(t, again), first) {
		t.Fatalf("%s: second evaluation on one instance differs (err %v)", e, err)
	}
}

func i64() Expr  { return col(0, vector.TypeInt64) }
func f64() Expr  { return col(1, vector.TypeFloat64) }
func str() Expr  { return col(2, vector.TypeString) }
func date() Expr { return col(3, vector.TypeDate) }
func bl() Expr   { return col(4, vector.TypeBool) }
func div() Expr  { return col(5, vector.TypeFloat64) }
func i2() Expr   { return col(6, vector.TypeInt64) }

func TestProgramMatchesScalarOracle(t *testing.T) {
	c := programChunk()
	cases := []struct {
		name string
		e    Expr
	}{
		// NULL propagation through arithmetic, including the scalar
		// specializations on both sides and int/float promotion.
		{"add-int", Add(i64(), i2())},
		{"sub-int-scalar", Sub(i64(), Int(3))},
		{"sub-scalar-int", Sub(Int(100), i64())},
		{"mul-float", Mul(f64(), div())},
		{"mul-float-scalar", Mul(f64(), Float(2.5))},
		{"add-promote", Add(i64(), f64())},
		{"div-vec", Div(f64(), div())}, // zero divisors -> NULL
		{"div-scalar", Div(f64(), Float(0))},
		{"div-scalar-left", Div(Float(1), div())},
		{"date-minus-int", Sub(date(), Int(30))},
		// NULL propagation through comparisons, NaN semantics, scalar flips.
		{"eq-int", Eq(i64(), i2())},
		{"lt-float", Lt(f64(), div())},
		{"le-float-nan", Le(f64(), f64())},
		{"ge-scalar-left", Ge(Float(0), f64())},
		{"ne-string", Ne(str(), Str("apple"))},
		{"gt-string", Gt(str(), str())},
		{"cmp-bool", Eq(bl(), bl())},
		{"cmp-date", Between(date(), Date("1994-01-01"), Date("1996-12-31"))},
		{"cmp-mixed-promote", Gt(i64(), Float(0.5))},
		// Three-valued logic: connectives over columns with NULLs.
		{"and", And(bl(), Gt(i64(), Int(0)))},
		{"or", Or(bl(), IsNull(f64()))},
		{"and-or-not", Or(And(bl(), Not(bl())), Not(And(bl(), Gt(f64(), Float(0)))))},
		{"not-null", Not(bl())},
		{"is-null", IsNull(i64())},
		{"is-not-null", IsNotNull(str())},
		// Misc nodes: IN, CASE, EXTRACT, SUBSTR.
		{"in", In(i64(), vector.NewInt64(1), vector.NewInt64(42))},
		{"not-in", NotIn(str(), vector.NewString("apple"), vector.NewString(""))},
		{"case", When(Gt(f64(), Float(0)), Str("pos"), Str("nonpos"))},
		{"case-null-cond", When(bl(), i64(), i2())},
		{"extract-year", ExtractYear(date())},
		{"extract-month", ExtractMonth(date())},
		{"substr", Substr(str(), 2, 3)},
		// Casts, including the constant-folding path inside scalar arith.
		{"cast-int-float", ToFloat(i64())},
		{"cast-date-float", ToFloat(date())},
		{"cast-const-fold", Mul(f64(), ToFloat(Int(3)))},
		{"null-literal", Add(i64(), Lit(vector.NewNull(vector.TypeInt64)))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkProgramAgainstOracle(t, tc.e, c)
		})
	}
}

// TestProgramLikePatterns covers LIKE's edge patterns — empty pattern, bare
// wildcards, escaped _ and %, trailing escape.
func TestProgramLikePatterns(t *testing.T) {
	c := programChunk()
	patterns := []string{
		"", "%", "_", "%%", "a%", "%e", "a__le", "50\\%", "a\\_b", "%\\%%", "\\", "apple",
	}
	for _, pat := range patterns {
		checkProgramAgainstOracle(t, Like(str(), pat), c)
		checkProgramAgainstOracle(t, NotLike(str(), pat), c)
	}
}

// TestProgramCastOverflow covers float->int casts of values outside the
// int64 range and NaN, alone and through arithmetic on the result.
func TestProgramCastOverflow(t *testing.T) {
	c := programChunk() // column 1 holds 1e300, -1e300, +Inf, NaN
	checkProgramAgainstOracle(t, &Cast{In: f64(), To: vector.TypeInt64}, c)
	checkProgramAgainstOracle(t, Add(&Cast{In: f64(), To: vector.TypeInt64}, Int(1)), c)
}

// foreignExpr is a node type the program compiler has never heard of.
type foreignExpr struct{}

func (foreignExpr) Type() vector.Type { return vector.TypeBool }
func (foreignExpr) String() string    { return "foreign()" }

// TestProgramFallbacks: there is no fallback. An expression the compiler
// cannot turn into a program — an unknown node, an ill-typed literal
// assembled past the constructors — is an error naming the node, wherever in
// the tree it sits, and the oracle refuses it too.
func TestProgramFallbacks(t *testing.T) {
	c := programChunk()
	for _, tc := range []struct {
		e    Expr
		want string
	}{
		{&Cast{In: str(), To: vector.TypeInt64}, "unsupported cast VARCHAR -> BIGINT"},
		{Add(i64(), &Cast{In: str(), To: vector.TypeFloat64}), "unsupported cast VARCHAR -> DOUBLE"},
		{And(bl(), foreignExpr{}), "expr.foreignExpr (foreign())"},
		{&NotExpr{In: f64()}, "NOT over DOUBLE"},
		{&AndExpr{Args: []Expr{bl(), i64()}}, "boolean connective over BIGINT"},
		{&LikeExpr{In: i64(), Pattern: "%"}, "LIKE over BIGINT"},
		{&ExtractExpr{In: str()}, "EXTRACT over VARCHAR"},
		{&SubstrExpr{In: date(), Length: 1}, "SUBSTRING over DATE"},
		{&CaseExpr{Whens: []Expr{i64()}, Thens: []Expr{i64()}, typ: vector.TypeInt64}, "CASE condition of type BIGINT"},
		{&CaseExpr{Whens: []Expr{bl()}, Thens: []Expr{str()}, typ: vector.TypeInt64}, "CASE branch of type VARCHAR"},
		{&Arith{Op: OpAdd, L: i64(), R: f64(), typ: vector.TypeFloat64}, "arith + yielding DOUBLE over BIGINT and DOUBLE"},
		{&Arith{Op: OpDiv, L: i64(), R: i2(), typ: vector.TypeInt64}, "arith / yielding BIGINT over BIGINT and BIGINT"},
		{&Compare{Op: OpEq, L: i64(), R: str()}, "compare type mismatch: BIGINT vs VARCHAR"},
		{col(0, vector.TypeInvalid), "column 0 of type INVALID"},
	} {
		p, err := CompileProgram(tc.e)
		if err == nil || p != nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("CompileProgram(%s) = %v, %v; want an error containing %q", tc.e, p, err, tc.want)
		}
		checkProgramAgainstOracle(t, tc.e, c)
	}
}

// TestProgramInstanceIndependence runs two instances of one program over
// different chunks and checks they do not share register state.
func TestProgramInstanceIndependence(t *testing.T) {
	e := Add(Mul(f64(), Float(2)), div())
	p, err := CompileProgram(e)
	if err != nil {
		t.Fatal(err)
	}
	c1 := programChunk()
	c2 := vector.NewChunk(c1.Types())
	c2.AppendRowValues(
		vector.NewInt64(9), vector.NewFloat64(4.5), vector.NewString("x"),
		vector.NewDate(vector.MustParseDate("1999-09-09")), vector.NewBool(true),
		vector.NewFloat64(1), vector.NewInt64(5),
	)
	in1, in2 := p.NewInstance(), p.NewInstance()
	v1, err := in1.Eval(c1)
	if err != nil {
		t.Fatal(err)
	}
	b1 := vectorBytes(t, v1)
	if _, err := in2.Eval(c2); err != nil {
		t.Fatal(err)
	}
	// in2's evaluation must not have disturbed in1's output vector.
	if !bytes.Equal(vectorBytes(t, v1), b1) {
		t.Error("instances share register state")
	}
}
