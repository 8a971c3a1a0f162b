package expr

import (
	"math"
	"testing"

	"github.com/riveterdb/riveter/internal/vector"
)

// treeGen turns fuzz bytes into an expression tree over programChunk's seven
// columns. Each choice consumes one byte; exhausted input reads as zeros,
// which every choice maps to a leaf, so any input yields a finite tree.
type treeGen struct {
	data []byte
}

func (g *treeGen) next() int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b)
}

// fuzzColumns lists programChunk's columns by type.
var fuzzColumns = map[vector.Type][]int{
	vector.TypeInt64:   {0, 6},
	vector.TypeFloat64: {1, 5},
	vector.TypeString:  {2},
	vector.TypeDate:    {3},
	vector.TypeBool:    {4},
}

var fuzzTypes = []vector.Type{
	vector.TypeInt64, vector.TypeFloat64, vector.TypeString, vector.TypeDate, vector.TypeBool,
}

var fuzzConsts = map[vector.Type][]vector.Value{
	vector.TypeInt64: {
		vector.NewInt64(0), vector.NewInt64(1), vector.NewInt64(-7), vector.NewInt64(42),
		vector.NewInt64(math.MaxInt64), vector.NewInt64(math.MinInt64),
	},
	vector.TypeFloat64: {
		vector.NewFloat64(0), vector.NewFloat64(math.Copysign(0, -1)), vector.NewFloat64(1.5),
		vector.NewFloat64(-2), vector.NewFloat64(math.NaN()), vector.NewFloat64(math.Inf(-1)), vector.NewFloat64(1e300),
	},
	vector.TypeString: {
		vector.NewString(""), vector.NewString("apple"), vector.NewString("50%"), vector.NewString("a_b"),
	},
	vector.TypeDate: {
		vector.NewDate(0), vector.NewDate(vector.MustParseDate("1995-07-01")), vector.NewDate(vector.MustParseDate("1998-12-01")),
	},
	vector.TypeBool: {vector.NewBool(true), vector.NewBool(false)},
}

var fuzzPatterns = []string{
	"", "%", "_", "a%", "%e", "a__le", "50\\%", "%\\%%", "apple",
	"%p%e%", "a%p%e", "%pp%i%", "%%_%", "a%%", "%_%%",
}

func pick[T any](g *treeGen, from []T) T { return from[g.next()%len(from)] }

// leaf yields a column or literal of type t — or, on the rare bytes, a NULL
// literal, a column bound to the wrong type, or one out of range: the two
// things a program can only find out on the chunk.
func (g *treeGen) leaf(t vector.Type) Expr {
	switch b := g.next(); {
	case b >= 250:
		return col(9, t)
	case b >= 244:
		other := pick(g, fuzzTypes)
		return col(fuzzColumns[other][0], t)
	case b >= 232:
		return Lit(vector.NewNull(t))
	case b%2 == 0:
		return col(pick(g, fuzzColumns[t]), t)
	default:
		return Lit(pick(g, fuzzConsts[t]))
	}
}

// expr yields a tree of type t at most depth nodes deep. Well-typed nodes go
// through the constructors (which panic on anything else, so the generator
// hands them only what they accept); ill-typed ones are assembled as struct
// literals, the only way one can reach the compiler.
func (g *treeGen) expr(t vector.Type, depth int) Expr {
	if depth == 0 {
		return g.leaf(t)
	}
	sub := func(t vector.Type) Expr { return g.expr(t, depth-1) }
	b := g.next()
	// Productions every type has.
	switch b % 16 {
	case 0, 1, 2:
		return g.leaf(t)
	case 3:
		var els Expr
		if g.next()%2 == 0 {
			els = sub(t)
		}
		whens, thens := []Expr{sub(vector.TypeBool)}, []Expr{sub(t)}
		if g.next()%3 == 0 {
			whens, thens = append(whens, sub(vector.TypeBool)), append(thens, sub(t))
		}
		return Case(whens, thens, els)
	case 4:
		// A node assembled past the constructors: the operand type is
		// arbitrary, so most of these are ill-typed.
		in := sub(pick(g, fuzzTypes))
		switch t {
		case vector.TypeBool:
			if g.next()%2 == 0 {
				return &NotExpr{In: in}
			}
			return &LikeExpr{In: in, Pattern: pick(g, fuzzPatterns)}
		case vector.TypeInt64:
			return &ExtractExpr{Field: FieldMonth, In: in}
		case vector.TypeString:
			return &SubstrExpr{In: in, Start: 1, Length: 2}
		default:
			return &Cast{In: in, To: t}
		}
	}
	arith := func(ops int, l, r Expr) Expr {
		return newArith(ArithOp(g.next()%ops), l, r)
	}
	switch t {
	case vector.TypeBool:
		switch b % 8 {
		case 0, 1:
			ot := pick(g, fuzzTypes)
			l, r := sub(ot), sub(ot)
			if ot.Numeric() && g.next()%4 == 0 {
				r = sub(vector.TypeFloat64) // promotion inserts the casts
			}
			return newCompare(CmpOp(g.next()%6), l, r)
		case 2:
			return And(sub(t), sub(t), sub(t))
		case 3:
			return Or(sub(t), sub(t))
		case 4:
			return Not(sub(t))
		case 5:
			return &IsNullExpr{In: sub(pick(g, fuzzTypes)), Negate: g.next()%2 == 0}
		case 6:
			return g.in(sub)
		default:
			return &LikeExpr{In: sub(vector.TypeString), Pattern: pick(g, fuzzPatterns), Negate: g.next()%2 == 0}
		}
	case vector.TypeInt64:
		switch b % 4 {
		case 0:
			return arith(3, sub(t), sub(t))
		case 1:
			return arith(3, sub(vector.TypeDate), sub(t)) // DATE ± BIGINT stays integral
		case 2:
			return &ExtractExpr{Field: ExtractField(g.next() % 2), In: sub(vector.TypeDate)}
		default:
			return &Cast{In: sub(vector.TypeFloat64), To: t}
		}
	case vector.TypeFloat64:
		switch b % 4 {
		case 0, 1:
			return arith(4, sub(t), sub(t))
		case 2:
			return arith(4, sub(vector.TypeInt64), sub(t))
		default:
			return ToFloat(sub(pick(g, []vector.Type{vector.TypeInt64, vector.TypeDate})))
		}
	case vector.TypeString:
		return Substr(sub(t), g.next()%6-1, g.next()%5)
	default: // DATE
		return arith(3, sub(t), sub(t))
	}
}

// in yields an IN or NOT IN over any type with up to four candidates, some
// NULL. A numeric input's candidates may be of another numeric type, which
// the program must promote as Compare does; on rare bytes a candidate's
// type is arbitrary, mostly a compile error.
func (g *treeGen) in(sub func(vector.Type) Expr) Expr {
	ot := pick(g, fuzzTypes)
	list := make([]vector.Value, 1+g.next()%4)
	for i := range list {
		ct := ot
		switch b := g.next(); {
		case b >= 240:
			ct = pick(g, fuzzTypes)
		case b >= 160 && ot.Numeric():
			ct = pick(g, []vector.Type{vector.TypeInt64, vector.TypeFloat64, vector.TypeDate})
		}
		if g.next()%4 == 0 {
			list[i] = vector.NewNull(ct)
		} else {
			list[i] = pick(g, fuzzConsts[ct])
		}
	}
	return &InExpr{In: sub(ot), List: list, Negate: g.next()%2 == 0}
}

// FuzzProgramMatchesScalar builds a bounded random expression from the input
// and holds its compiled program to the scalar oracle on every row of the
// adversarial chunk: the same value, an error exactly when the oracle
// errors, never a panic.
func FuzzProgramMatchesScalar(f *testing.F) {
	c := programChunk()
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &treeGen{data: data}
		checkProgramAgainstOracle(t, g.expr(pick(g, fuzzTypes), 4), c)
	})
}

// kernelTypes are the types the selection's comparison kernels cover.
var kernelTypes = []vector.Type{vector.TypeInt64, vector.TypeFloat64, vector.TypeString, vector.TypeDate}

// conjunct yields one conjunct for a selection over programChunk: mostly
// of a kernel shape — a column against a constant (from either side, or
// a BIGINT one a DOUBLE column promotes) or against a column, IN, IS
// [NOT] NULL, LIKE — and otherwise any BOOLEAN tree, which the selection
// runs as a program.
func (g *treeGen) conjunct() Expr {
	column := func(t vector.Type) Expr { return col(pick(g, fuzzColumns[t]), t) }
	op := func() CmpOp { return CmpOp(g.next() % 6) }
	switch g.next() % 7 {
	case 0:
		t := pick(g, kernelTypes)
		x, k := column(t), Expr(Lit(pick(g, fuzzConsts[t])))
		if g.next()%2 == 0 {
			x, k = k, x
		}
		return newCompare(op(), x, k)
	case 1:
		t := pick(g, kernelTypes)
		return newCompare(op(), column(t), column(t))
	case 2:
		return g.in(column)
	case 3:
		return &IsNullExpr{In: column(pick(g, fuzzTypes)), Negate: g.next()%2 == 0}
	case 4:
		return &LikeExpr{In: column(vector.TypeString), Pattern: pick(g, fuzzPatterns), Negate: g.next()%2 == 0}
	case 5:
		return newCompare(op(), column(vector.TypeFloat64), Lit(pick(g, fuzzConsts[vector.TypeInt64])))
	default:
		return g.expr(vector.TypeBool, 3)
	}
}

// FuzzSelectionMatchesScalar builds a conjunction of one to five conjuncts
// from the input and holds its compiled selection to the scalar oracle over
// the adversarial chunk: the rows on which the oracle yields TRUE, an error
// exactly when the oracle errors, never a panic.
func FuzzSelectionMatchesScalar(f *testing.F) {
	c := programChunk()
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &treeGen{data: data}
		conjs := make([]Expr, 1+g.next()%5)
		for i := range conjs {
			conjs[i] = g.conjunct()
		}
		checkSelectionAgainstOracle(t, And(conjs...), c)
	})
}
