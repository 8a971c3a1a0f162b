// Package expr implements typed scalar expression trees and their vectorized
// evaluation over data chunks. Expressions are bound at construction time:
// every node knows its result type, numeric type promotion (BIGINT ->
// DOUBLE) is inserted eagerly by the constructor helpers, and a constructor
// handed an operand of the wrong type panics (sql.Compile recovers that into
// a Prepare error). A tree is description only; CompileProgram turns it into
// the one evaluator, and EvalScalar is the row-at-a-time oracle tests hold
// that evaluator to.
//
// NULL semantics follow SQL: comparisons and arithmetic over NULL yield NULL,
// and filters treat NULL as false. Expression String() forms are
// deterministic and feed the plan fingerprint used to validate checkpoints.
package expr

import (
	"fmt"

	"github.com/riveterdb/riveter/internal/vector"
)

// Expr is a typed scalar expression node.
type Expr interface {
	// Type returns the statically known result type.
	Type() vector.Type
	// String renders a deterministic form used for plan fingerprints.
	String() string
}

// operandErr reports an operand whose static type is not the one the node
// named by format (which takes the offending type) requires. The
// constructors panic with it and CompileProgram returns it, so a statement
// and a hand-assembled node fail with the same words.
func operandErr(format string, e Expr, want vector.Type) error {
	if e.Type() != want {
		return fmt.Errorf(format, e.Type())
	}
	return nil
}

// must panics with the text of a constructor's type error.
func must(err error) {
	if err != nil {
		panic(err.Error())
	}
}

// Column references an input column by position.
type Column struct {
	Index int
	Typ   vector.Type
	Name  string // display only; not part of semantics
}

// NamedCol returns a column reference that prints with a name.
func NamedCol(index int, t vector.Type, name string) *Column {
	return &Column{Index: index, Typ: t, Name: name}
}

// Type implements Expr.
func (c *Column) Type() vector.Type { return c.Typ }

// String implements Expr.
func (c *Column) String() string { return fmt.Sprintf("#%d:%v", c.Index, c.Typ) }

// Const is a literal value.
type Const struct {
	Val vector.Value
}

// Lit returns a literal expression.
func Lit(v vector.Value) *Const { return &Const{Val: v} }

// Int returns a BIGINT literal.
func Int(v int64) *Const { return Lit(vector.NewInt64(v)) }

// Float returns a DOUBLE literal.
func Float(v float64) *Const { return Lit(vector.NewFloat64(v)) }

// Str returns a VARCHAR literal.
func Str(v string) *Const { return Lit(vector.NewString(v)) }

// Date returns a DATE literal from a YYYY-MM-DD string.
func Date(s string) *Const { return Lit(vector.NewDate(vector.MustParseDate(s))) }

// Type implements Expr.
func (l *Const) Type() vector.Type { return l.Val.Type }

// String implements Expr.
func (l *Const) String() string { return fmt.Sprintf("%v[%v]", l.Val, l.Val.Type) }

// Cast converts BIGINT/DATE to DOUBLE (the only implicit conversion the
// engine needs; TPC-H mixes integer quantities with decimal arithmetic).
type Cast struct {
	In Expr
	To vector.Type
}

// ToFloat wraps e in a cast to DOUBLE if it is not already one.
func ToFloat(e Expr) Expr {
	if e.Type() == vector.TypeFloat64 {
		return e
	}
	return &Cast{In: e, To: vector.TypeFloat64}
}

// Type implements Expr.
func (c *Cast) Type() vector.Type { return c.To }

// String implements Expr.
func (c *Cast) String() string { return fmt.Sprintf("cast(%s as %v)", c.In, c.To) }

// promote returns both expressions cast to a common numeric type.
func promote(l, r Expr) (Expr, Expr, vector.Type, error) {
	lt, rt := l.Type(), r.Type()
	if lt == rt {
		return l, r, lt, nil
	}
	if lt.Numeric() && rt.Numeric() {
		// DATE +- BIGINT stays in the int64 domain; mixing with DOUBLE promotes.
		if lt == vector.TypeFloat64 || rt == vector.TypeFloat64 {
			return ToFloat(l), ToFloat(r), vector.TypeFloat64, nil
		}
		// DATE with BIGINT: keep int64 representation.
		return l, r, vector.TypeInt64, nil
	}
	return nil, nil, vector.TypeInvalid, fmt.Errorf("incompatible types %v and %v", lt, rt)
}

// RemapColumns returns e with every column reference's index replaced by
// remap(index); remap's error stops the walk. Nodes under which no index
// changes are returned as they are, so a remap that returns its argument
// allocates nothing and serves to list the columns e reads. Like
// CompileProgram it fails on a node type it does not know, so no column
// reference is passed over unseen.
func RemapColumns(e Expr, remap func(int) (int, error)) (Expr, error) {
	var err error
	changed := false // whether a child of e changed
	walk := func(x Expr) Expr {
		if err != nil {
			return x
		}
		y, werr := RemapColumns(x, remap)
		if werr != nil {
			err = werr
			return x
		}
		changed = changed || y != x
		return y
	}
	walkAll := func(xs []Expr) []Expr {
		out := xs // copied at the first child that changes
		for i, x := range xs {
			if y := walk(x); y != x {
				if &out[0] == &xs[0] {
					out = append([]Expr(nil), xs...)
				}
				out[i] = y
			}
		}
		return out
	}
	switch x := e.(type) {
	case *Column:
		idx, err := remap(x.Index)
		if err != nil || idx == x.Index {
			return x, err
		}
		c := *x
		c.Index = idx
		return &c, nil
	case *Const:
		return x, nil
	case *Cast:
		in := walk(x.In)
		if err != nil || !changed {
			return x, err
		}
		c := *x
		c.In = in
		return &c, nil
	case *Arith:
		l, r := walk(x.L), walk(x.R)
		if err != nil || !changed {
			return x, err
		}
		c := *x
		c.L, c.R = l, r
		return &c, nil
	case *Compare:
		l, r := walk(x.L), walk(x.R)
		if err != nil || !changed {
			return x, err
		}
		c := *x
		c.L, c.R = l, r
		return &c, nil
	case *AndExpr:
		args := walkAll(x.Args)
		if err != nil || !changed {
			return x, err
		}
		return &AndExpr{Args: args}, nil
	case *OrExpr:
		args := walkAll(x.Args)
		if err != nil || !changed {
			return x, err
		}
		return &OrExpr{Args: args}, nil
	case *NotExpr:
		in := walk(x.In)
		if err != nil || !changed {
			return x, err
		}
		return &NotExpr{In: in}, nil
	case *IsNullExpr:
		in := walk(x.In)
		if err != nil || !changed {
			return x, err
		}
		c := *x
		c.In = in
		return &c, nil
	case *InExpr:
		in := walk(x.In)
		if err != nil || !changed {
			return x, err
		}
		c := *x
		c.In = in
		return &c, nil
	case *LikeExpr:
		in := walk(x.In)
		if err != nil || !changed {
			return x, err
		}
		c := *x
		c.In = in
		return &c, nil
	case *ExtractExpr:
		in := walk(x.In)
		if err != nil || !changed {
			return x, err
		}
		c := *x
		c.In = in
		return &c, nil
	case *SubstrExpr:
		in := walk(x.In)
		if err != nil || !changed {
			return x, err
		}
		c := *x
		c.In = in
		return &c, nil
	case *CaseExpr:
		whens, thens := walkAll(x.Whens), walkAll(x.Thens)
		els := x.Else
		if els != nil {
			els = walk(els)
		}
		if err != nil || !changed {
			return x, err
		}
		c := *x
		c.Whens, c.Thens, c.Else = whens, thens, els
		return &c, nil
	default:
		return nil, fmt.Errorf("expr: cannot remap the columns of node %T (%s)", e, e)
	}
}
