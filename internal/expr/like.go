package expr

import (
	"fmt"
	"strings"

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
// worst case and O(n) for typical patterns. A % in the pattern is always a
// wildcard, also where s holds a % byte. Programs run it only for patterns
// with _ (compileLike); the scalar oracle runs it for all.
func LikeMatch(s, pattern string) bool {
	var (
		si, pi         int
		starPi, starSi = -1, 0
	)
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '%':
			starPi, starSi = pi, si
			pi++
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
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

// likeKind is the form a LIKE pattern compiles to.
type likeKind uint8

const (
	likeEqual    likeKind = iota // no %: s == pattern
	likePrefix                   // "prefix%"
	likeSuffix                   // "%suffix"
	likeContains                 // "%mid%"
	likeSegments                 // prefix, ordered middle segments, suffix
	likeGeneral                  // has _: LikeMatch
)

// likeMatcher is a LIKE pattern compiled once: a pattern without _ splits
// at its %s into a prefix, a suffix and the non-empty segments between,
// matched with the strings package (the leftmost occurrence of each middle
// segment is always the best one to take).
type likeMatcher struct {
	kind           likeKind
	pattern        string
	prefix, suffix string
	mid            []string
}

func compileLike(pattern string) *likeMatcher {
	m := &likeMatcher{pattern: pattern}
	if strings.IndexByte(pattern, '_') >= 0 {
		m.kind = likeGeneral
		return m
	}
	segs := strings.Split(pattern, "%")
	m.prefix, m.suffix = segs[0], segs[len(segs)-1]
	for _, seg := range segs[1:max(len(segs)-1, 1)] {
		if seg != "" {
			m.mid = append(m.mid, seg)
		}
	}
	switch {
	case len(segs) == 1:
		m.kind = likeEqual
	case len(m.mid) == 0 && m.suffix == "":
		m.kind = likePrefix
	case len(m.mid) == 0 && m.prefix == "":
		m.kind = likeSuffix
	case len(m.mid) == 1 && m.prefix == "" && m.suffix == "":
		m.kind = likeContains
	default:
		m.kind = likeSegments
	}
	return m
}

// match reports whether s matches (the likeSegments and likeGeneral forms).
func (m *likeMatcher) match(s string) bool {
	if m.kind == likeGeneral {
		return LikeMatch(s, m.pattern)
	}
	if len(s) < len(m.prefix)+len(m.suffix) || !strings.HasPrefix(s, m.prefix) || !strings.HasSuffix(s, m.suffix) {
		return false
	}
	rest := s[len(m.prefix) : len(s)-len(m.suffix)]
	for _, seg := range m.mid {
		i := strings.Index(rest, seg)
		if i < 0 {
			return false
		}
		rest = rest[i+len(seg):]
	}
	return true
}

// matchAll sets dst[i] to whether ss[i] matches, inverted under negate,
// with one loop per form.
func (m *likeMatcher) matchAll(dst []bool, ss []string, negate bool) {
	ss = ss[:len(dst)]
	switch m.kind {
	case likeEqual:
		lit := m.pattern
		for i, s := range ss {
			dst[i] = (s == lit) != negate
		}
	case likePrefix:
		lit := m.prefix
		for i, s := range ss {
			dst[i] = strings.HasPrefix(s, lit) != negate
		}
	case likeSuffix:
		lit := m.suffix
		for i, s := range ss {
			dst[i] = strings.HasSuffix(s, lit) != negate
		}
	case likeContains:
		lit := m.mid[0]
		for i, s := range ss {
			dst[i] = strings.Contains(s, lit) != negate
		}
	default:
		for i, s := range ss {
			dst[i] = m.match(s) != negate
		}
	}
}

// refine keeps the rows i of sel where ss[i] matches, or under negate does
// not, with one branch-free loop per form.
func (m *likeMatcher) refine(sel []int32, ss []string, negate bool) []int32 {
	k := 0
	switch m.kind {
	case likeEqual:
		lit := m.pattern
		for _, i := range sel {
			sel[k] = i
			k += b2i((ss[i] == lit) != negate)
		}
	case likePrefix:
		lit := m.prefix
		for _, i := range sel {
			sel[k] = i
			k += b2i(strings.HasPrefix(ss[i], lit) != negate)
		}
	case likeSuffix:
		lit := m.suffix
		for _, i := range sel {
			sel[k] = i
			k += b2i(strings.HasSuffix(ss[i], lit) != negate)
		}
	case likeContains:
		lit := m.mid[0]
		for _, i := range sel {
			sel[k] = i
			k += b2i(strings.Contains(ss[i], lit) != negate)
		}
	default:
		for _, i := range sel {
			sel[k] = i
			k += b2i(m.match(ss[i]) != negate)
		}
	}
	return sel[:k]
}

// b2i is 1 for true and 0 for false, without a branch once inlined.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
