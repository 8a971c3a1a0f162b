package plan

import (
	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/expr"
)

// Cardinality estimation. This is intentionally the textbook-naive model:
// constant selectivities for predicates and multiplicative join estimates
// with no upper bound. The paper's Table IV depends on exactly this
// naivety — the "optimizer-based" intermediate-size estimator it evaluates
// overestimates join queries by many orders of magnitude.

// Default selectivities by predicate shape.
const (
	selEq      = 0.1
	selRange   = 1.0 / 3.0
	selLike    = 0.1
	selIn      = 0.2
	selDefault = 0.25
	selJoin    = 0.1 // per equi-join pair, applied to |L| * |R|
)

// EstimateRows returns the naive estimated output cardinality of the plan.
func EstimateRows(n Node, cat *catalog.Catalog) float64 {
	switch t := n.(type) {
	case *Scan:
		rows := float64(1)
		if tbl, err := cat.Table(t.Table); err == nil {
			rows = float64(tbl.NumRows())
		}
		if t.Filter != nil {
			rows *= Selectivity(t.Filter)
		}
		if rows < 1 {
			rows = 1
		}
		return rows
	case *Filter:
		r := EstimateRows(t.Child, cat) * Selectivity(t.Cond)
		if r < 1 {
			r = 1
		}
		return r
	case *Project:
		return EstimateRows(t.Child, cat)
	case *Rename:
		return EstimateRows(t.Child, cat)
	case *Sort:
		return EstimateRows(t.Child, cat)
	case *Limit:
		r := EstimateRows(t.Child, cat)
		if float64(t.N) < r {
			return float64(t.N)
		}
		return r
	case *Join:
		l := EstimateRows(t.Left, cat)
		r := EstimateRows(t.Right, cat)
		switch t.Type {
		case SemiJoin, AntiJoin:
			return l * 0.5
		case RightSemiJoin, RightAntiJoin:
			return r * 0.5
		case CrossJoin:
			return l * r
		default:
			sel := 1.0
			for range t.LeftKeys {
				sel *= selJoin
			}
			if len(t.LeftKeys) == 0 {
				sel = 1
			}
			est := l * r * sel
			if est < 1 {
				est = 1
			}
			return est
		}
	case *Aggregate:
		if len(t.GroupBy) == 0 {
			return 1
		}
		r := EstimateRows(t.Child, cat) * 0.1
		if r < 1 {
			r = 1
		}
		return r
	default:
		return 1
	}
}

// Selectivity estimates the fraction of rows passing a predicate.
func Selectivity(e expr.Expr) float64 {
	switch t := e.(type) {
	case *expr.Compare:
		if t.Op == expr.OpEq {
			return selEq
		}
		return selRange
	case *expr.LikeExpr:
		return selLike
	case *expr.InExpr:
		return selIn
	case *expr.AndExpr:
		s := 1.0
		for _, a := range t.Args {
			s *= Selectivity(a)
		}
		return s
	case *expr.OrExpr:
		s := 0.0
		for _, a := range t.Args {
			s += Selectivity(a)
		}
		if s > 1 {
			s = 1
		}
		return s
	case *expr.NotExpr:
		return 1 - Selectivity(t.In)
	default:
		return selDefault
	}
}

// EstimateWidth returns the estimated row width in bytes of a plan's output:
// fixed-width columns by type, strings by a flat default, matching how a
// cost-based optimizer prices row widths from column data types.
func EstimateWidth(n Node) float64 {
	var w float64
	for _, c := range n.Schema().Columns {
		if fw := c.Type.FixedWidth(); fw > 0 {
			w += float64(fw)
		} else {
			w += 32
		}
	}
	return w
}

// CoreOperator returns the core operator (join or grouped aggregate)
// closest to the root of the plan, or nil when the plan has none. The
// paper's optimizer-based size estimator prices the intermediate data of
// exactly this operator. Global (ungrouped) aggregates are skipped: their
// estimated cardinality is trivially one row and carries no sizing signal,
// whereas the join or grouped aggregate beneath them is what accumulates
// intermediate state.
func CoreOperator(n Node) Node {
	switch t := n.(type) {
	case *Join:
		return n
	case *Aggregate:
		if len(t.GroupBy) > 0 {
			return n
		}
	}
	for _, c := range n.Children() {
		if core := CoreOperator(c); core != nil {
			return core
		}
	}
	return nil
}

// CountOperators tallies operator kinds in the plan; the regression-based
// size estimator uses these as features ("metadata of the query, e.g.
// number of various core operators in the physical plan").
type OperatorCounts struct {
	Scans, Filters, Projects, Joins, OuterJoins, SemiAnti, Aggregates, Sorts, Limits int
	Tables                                                                           int
}

// CountOperators walks the plan and tallies operator kinds.
func CountOperators(n Node) OperatorCounts {
	var c OperatorCounts
	seen := map[string]bool{}
	Walk(n, func(m Node) {
		switch t := m.(type) {
		case *Scan:
			c.Scans++
			if !seen[t.Table] {
				seen[t.Table] = true
			}
		case *Filter:
			c.Filters++
		case *Project:
			c.Projects++
		case *Join:
			switch t.Type {
			case LeftOuterJoin:
				c.OuterJoins++
			case SemiJoin, AntiJoin, RightSemiJoin, RightAntiJoin:
				c.SemiAnti++
			default:
				c.Joins++
			}
		case *Aggregate:
			c.Aggregates++
		case *Sort:
			c.Sorts++
		case *Limit:
			c.Limits++
		}
	})
	c.Tables = len(seen)
	return c
}
