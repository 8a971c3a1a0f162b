package expr

import (
	"fmt"

	"github.com/riveterdb/riveter/internal/vector"
)

// ArithOp enumerates binary arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
)

var arithNames = [...]string{"+", "-", "*", "/"}

// String returns the operator symbol.
func (op ArithOp) String() string { return arithNames[op] }

// Arith is a binary arithmetic expression over numeric operands.
type Arith struct {
	Op   ArithOp
	L, R Expr
	typ  vector.Type
}

func newArith(op ArithOp, l, r Expr) Expr {
	pl, pr, t, err := promote(l, r)
	if err != nil {
		panic(fmt.Sprintf("arith %v: %v", op, err))
	}
	if op == OpDiv {
		// SQL division over integers is performed in the double domain here;
		// TPC-H arithmetic is decimal either way.
		pl, pr, t = ToFloat(pl), ToFloat(pr), vector.TypeFloat64
	}
	return &Arith{Op: op, L: pl, R: pr, typ: t}
}

// Add returns l + r with numeric promotion.
func Add(l, r Expr) Expr { return newArith(OpAdd, l, r) }

// Sub returns l - r with numeric promotion.
func Sub(l, r Expr) Expr { return newArith(OpSub, l, r) }

// Mul returns l * r with numeric promotion.
func Mul(l, r Expr) Expr { return newArith(OpMul, l, r) }

// Div returns l / r evaluated in the double domain.
func Div(l, r Expr) Expr { return newArith(OpDiv, l, r) }

// Type implements Expr.
func (a *Arith) Type() vector.Type { return a.typ }

// String implements Expr.
func (a *Arith) String() string { return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R) }
