package expr

import (
	"fmt"

	"github.com/riveterdb/riveter/internal/vector"
)

// LikeExpr matches a string expression against a SQL LIKE pattern with the
// wildcards % (any run, including empty) and _ (exactly one byte).
type LikeExpr struct {
	In      Expr
	Pattern string
	Negate  bool
}

// Like returns in LIKE pattern.
func Like(in Expr, pattern string) Expr { return newLike(in, pattern, false) }

// NotLike returns in NOT LIKE pattern.
func NotLike(in Expr, pattern string) Expr { return newLike(in, pattern, true) }

const likeOver = "LIKE over %v"

func newLike(in Expr, pattern string, negate bool) Expr {
	must(operandErr(likeOver, in, vector.TypeString))
	return &LikeExpr{In: in, Pattern: pattern, Negate: negate}
}

// Type implements Expr.
func (l *LikeExpr) Type() vector.Type { return vector.TypeBool }

// String implements Expr.
func (l *LikeExpr) String() string {
	op := "LIKE"
	if l.Negate {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("(%s %s %q)", l.In, op, l.Pattern)
}

// LikeMatch reports whether s matches the SQL LIKE pattern. It uses the
// classic greedy two-pointer wildcard algorithm: on mismatch after a %, the
// match restarts one byte later at the remembered % position, giving O(n*m)
// worst case and O(n) for typical patterns.
func LikeMatch(s, pattern string) bool {
	var (
		si, pi         int
		starPi, starSi = -1, 0
	)
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			starPi, starSi = pi, si
			pi++
		case starPi >= 0:
			pi = starPi + 1
			starSi++
			si = starSi
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}
