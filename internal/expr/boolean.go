package expr

import (
	"fmt"
	"strings"

	"github.com/riveterdb/riveter/internal/vector"
)

// AndExpr is an n-ary conjunction with SQL three-valued logic.
type AndExpr struct {
	Args []Expr
}

// And returns the conjunction of the arguments (flattening nested ANDs).
func And(args ...Expr) Expr {
	flat := make([]Expr, 0, len(args))
	for _, a := range args {
		if inner, ok := a.(*AndExpr); ok {
			flat = append(flat, inner.Args...)
			continue
		}
		flat = append(flat, a)
	}
	mustBools(flat)
	if len(flat) == 1 {
		return flat[0]
	}
	return &AndExpr{Args: flat}
}

// Type implements Expr.
func (a *AndExpr) Type() vector.Type { return vector.TypeBool }

// String implements Expr.
func (a *AndExpr) String() string {
	parts := make([]string, len(a.Args))
	for i, e := range a.Args {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, " AND ") + ")"
}

// OrExpr is an n-ary disjunction with SQL three-valued logic.
type OrExpr struct {
	Args []Expr
}

// Or returns the disjunction of the arguments (flattening nested ORs).
func Or(args ...Expr) Expr {
	flat := make([]Expr, 0, len(args))
	for _, a := range args {
		if inner, ok := a.(*OrExpr); ok {
			flat = append(flat, inner.Args...)
			continue
		}
		flat = append(flat, a)
	}
	mustBools(flat)
	if len(flat) == 1 {
		return flat[0]
	}
	return &OrExpr{Args: flat}
}

// Type implements Expr.
func (o *OrExpr) Type() vector.Type { return vector.TypeBool }

// String implements Expr.
func (o *OrExpr) String() string {
	parts := make([]string, len(o.Args))
	for i, e := range o.Args {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, " OR ") + ")"
}

const (
	connectiveOver = "boolean connective over %v"
	notOver        = "NOT over %v"
)

func mustBools(args []Expr) {
	for _, a := range args {
		must(operandErr(connectiveOver, a, vector.TypeBool))
	}
}

// NotExpr negates a boolean expression (NULL stays NULL).
type NotExpr struct {
	In Expr
}

// Not returns NOT e.
func Not(e Expr) Expr {
	must(operandErr(notOver, e, vector.TypeBool))
	return &NotExpr{In: e}
}

// Type implements Expr.
func (nx *NotExpr) Type() vector.Type { return vector.TypeBool }

// String implements Expr.
func (nx *NotExpr) String() string { return fmt.Sprintf("NOT %s", nx.In) }
