package expr

import (
	"fmt"

	"github.com/riveterdb/riveter/internal/vector"
)

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var cmpNames = [...]string{"=", "<>", "<", "<=", ">", ">="}

// String returns the operator symbol.
func (op CmpOp) String() string { return cmpNames[op] }

// matches reports whether a three-way comparison result satisfies the op.
func (op CmpOp) matches(c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// Compare is a binary comparison yielding BOOLEAN (NULL if either side is).
type Compare struct {
	Op   CmpOp
	L, R Expr
}

func newCompare(op CmpOp, l, r Expr) Expr {
	pl, pr, _, err := promote(l, r)
	if err != nil {
		panic(fmt.Sprintf("compare %v: %v", op, err))
	}
	return &Compare{Op: op, L: pl, R: pr}
}

// Eq returns l = r.
func Eq(l, r Expr) Expr { return newCompare(OpEq, l, r) }

// Ne returns l <> r.
func Ne(l, r Expr) Expr { return newCompare(OpNe, l, r) }

// Lt returns l < r.
func Lt(l, r Expr) Expr { return newCompare(OpLt, l, r) }

// Le returns l <= r.
func Le(l, r Expr) Expr { return newCompare(OpLe, l, r) }

// Gt returns l > r.
func Gt(l, r Expr) Expr { return newCompare(OpGt, l, r) }

// Ge returns l >= r.
func Ge(l, r Expr) Expr { return newCompare(OpGe, l, r) }

// Between returns low <= e AND e <= high.
func Between(e, low, high Expr) Expr { return And(Ge(e, low), Le(e, high)) }

// Type implements Expr.
func (cmp *Compare) Type() vector.Type { return vector.TypeBool }

// String implements Expr.
func (cmp *Compare) String() string { return fmt.Sprintf("(%s %s %s)", cmp.L, cmp.Op, cmp.R) }

func cmp3Bool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}
