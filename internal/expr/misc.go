package expr

import (
	"fmt"
	"strings"

	"github.com/riveterdb/riveter/internal/vector"
)

// InExpr tests membership of an expression in a list of constants.
type InExpr struct {
	In     Expr
	List   []vector.Value
	Negate bool
}

// In returns e IN (vals...).
func In(e Expr, vals ...vector.Value) Expr { return newIn(e, vals, false) }

// NotIn returns e NOT IN (vals...).
func NotIn(e Expr, vals ...vector.Value) Expr { return newIn(e, vals, true) }

func newIn(e Expr, vals []vector.Value, negate bool) Expr {
	x := &InExpr{In: e, List: vals, Negate: negate}
	_, err := inDomain(x)
	must(err)
	return x
}

// InStrings returns e IN (strings...).
func InStrings(e Expr, ss ...string) Expr {
	vals := make([]vector.Value, len(ss))
	for i, s := range ss {
		vals[i] = vector.NewString(s)
	}
	return In(e, vals...)
}

// Type implements Expr.
func (ix *InExpr) Type() vector.Type { return vector.TypeBool }

// String implements Expr.
func (ix *InExpr) String() string {
	parts := make([]string, len(ix.List))
	for i, v := range ix.List {
		parts[i] = v.String()
	}
	op := "IN"
	if ix.Negate {
		op = "NOT IN"
	}
	return fmt.Sprintf("(%s %s [%s])", ix.In, op, strings.Join(parts, ","))
}

// inDomain returns the physical type x's membership test compares in,
// promoting as Compare does: DOUBLE when the input or any non-NULL
// candidate is one and the other side is numeric, BIGINT for DATE and
// BIGINT, and otherwise the input's own type. A candidate of any other type
// (a string against a number, say) is an error.
func inDomain(x *InExpr) (vector.Type, error) {
	in := x.In.Type()
	dom := in
	if intRepr(in) {
		dom = vector.TypeInt64
	}
	for _, c := range x.List {
		switch {
		case c.Null || c.Type == in || intRepr(c.Type) && intRepr(in):
		case c.Type.Numeric() && in.Numeric():
			dom = vector.TypeFloat64
		default:
			return vector.TypeInvalid, fmt.Errorf("IN type mismatch: %v vs candidate %v of %v", in, c, c.Type)
		}
	}
	return dom, nil
}

// inCandidate converts a non-NULL candidate (or input value) into dom.
func inCandidate(v vector.Value, dom vector.Type) vector.Value {
	if dom == vector.TypeFloat64 && intRepr(v.Type) {
		return vector.NewFloat64(float64(v.I))
	}
	return v
}

// IsNullExpr tests for SQL NULL.
type IsNullExpr struct {
	In     Expr
	Negate bool
}

// IsNull returns e IS NULL.
func IsNull(e Expr) Expr { return &IsNullExpr{In: e} }

// IsNotNull returns e IS NOT NULL.
func IsNotNull(e Expr) Expr { return &IsNullExpr{In: e, Negate: true} }

// Type implements Expr.
func (nx *IsNullExpr) Type() vector.Type { return vector.TypeBool }

// String implements Expr.
func (nx *IsNullExpr) String() string {
	if nx.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", nx.In)
	}
	return fmt.Sprintf("(%s IS NULL)", nx.In)
}

// CaseExpr is CASE WHEN cond THEN val ... ELSE else END. Conditions are
// evaluated in order; NULL conditions count as false.
type CaseExpr struct {
	Whens []Expr // boolean
	Thens []Expr
	Else  Expr // may be nil -> NULL
	typ   vector.Type
}

// Case builds a CASE expression; all THEN/ELSE branches must share a type.
func Case(whens []Expr, thens []Expr, elseExpr Expr) Expr {
	if len(whens) == 0 || len(whens) != len(thens) {
		panic("Case: whens and thens must be non-empty and equal length")
	}
	for _, w := range whens {
		must(operandErr(caseCondition, w, vector.TypeBool))
	}
	t := thens[0].Type()
	for _, th := range thens[1:] {
		if th.Type() != t {
			panic(fmt.Sprintf("Case: branch type %v != %v", th.Type(), t))
		}
	}
	if elseExpr != nil && elseExpr.Type() != t {
		panic(fmt.Sprintf("Case: ELSE type %v != %v", elseExpr.Type(), t))
	}
	return &CaseExpr{Whens: whens, Thens: thens, Else: elseExpr, typ: t}
}

const (
	caseCondition = "CASE condition of type %v"
	caseBranch    = "CASE branch of type %v"
	extractOver   = "EXTRACT over %v"
	substringOver = "SUBSTRING over %v"
)

// When is a convenience for a single-branch CASE: CASE WHEN cond THEN a ELSE b END.
func When(cond, then, els Expr) Expr { return Case([]Expr{cond}, []Expr{then}, els) }

// Type implements Expr.
func (cx *CaseExpr) Type() vector.Type { return cx.typ }

// String implements Expr.
func (cx *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for i := range cx.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", cx.Whens[i], cx.Thens[i])
	}
	if cx.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", cx.Else)
	}
	b.WriteString(" END")
	return b.String()
}

// ExtractField selects the component Extract pulls from a date.
type ExtractField uint8

// Extractable date fields.
const (
	FieldYear ExtractField = iota
	FieldMonth
)

// ExtractExpr pulls a calendar field out of a DATE as BIGINT.
type ExtractExpr struct {
	Field ExtractField
	In    Expr
}

// ExtractYear returns EXTRACT(YEAR FROM e).
func ExtractYear(e Expr) Expr { return newExtract(FieldYear, e) }

// ExtractMonth returns EXTRACT(MONTH FROM e).
func ExtractMonth(e Expr) Expr { return newExtract(FieldMonth, e) }

func newExtract(f ExtractField, e Expr) Expr {
	must(operandErr(extractOver, e, vector.TypeDate))
	return &ExtractExpr{Field: f, In: e}
}

// Type implements Expr.
func (ex *ExtractExpr) Type() vector.Type { return vector.TypeInt64 }

// String implements Expr.
func (ex *ExtractExpr) String() string {
	f := "YEAR"
	if ex.Field == FieldMonth {
		f = "MONTH"
	}
	return fmt.Sprintf("EXTRACT(%s FROM %s)", f, ex.In)
}

// SubstrExpr is SUBSTRING(e FROM start FOR length), 1-based as in SQL.
type SubstrExpr struct {
	In            Expr
	Start, Length int
}

// Substr returns the 1-based substring expression.
func Substr(e Expr, start, length int) Expr {
	must(operandErr(substringOver, e, vector.TypeString))
	return &SubstrExpr{In: e, Start: start, Length: length}
}

// Type implements Expr.
func (sx *SubstrExpr) Type() vector.Type { return vector.TypeString }

// String implements Expr.
func (sx *SubstrExpr) String() string {
	return fmt.Sprintf("SUBSTRING(%s FROM %d FOR %d)", sx.In, sx.Start, sx.Length)
}
