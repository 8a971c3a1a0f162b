// Package plan defines the logical query plan: relational operator nodes, a
// builder DSL with name-based column resolution, naive cardinality
// estimation (feeding the paper's optimizer-based size estimator), and plan
// fingerprinting used to validate that a checkpoint matches the plan it is
// resumed into.
package plan

import (
	"fmt"
	"strings"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/vector"
)

// Node is a logical plan operator.
type Node interface {
	// Schema returns the output schema (names and types).
	Schema() *catalog.Schema
	// Children returns the input nodes.
	Children() []Node
	// String renders a deterministic one-line header for fingerprinting.
	String() string
}

// Scan reads a base table with an optional column projection and an optional
// pushed-down filter over the projected columns.
type Scan struct {
	Table       string
	TableSchema *catalog.Schema // full schema of the base table
	Projection  []int           // positions in TableSchema
	Filter      expr.Expr       // over projected columns; may be nil

	out *catalog.Schema
}

// NewScan builds a scan node.
func NewScan(table string, tableSchema *catalog.Schema, projection []int, filter expr.Expr) *Scan {
	return &Scan{
		Table:       table,
		TableSchema: tableSchema,
		Projection:  projection,
		Filter:      filter,
		out:         tableSchema.Project(projection),
	}
}

// Schema implements Node.
func (s *Scan) Schema() *catalog.Schema { return s.out }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// String implements Node.
func (s *Scan) String() string {
	f := ""
	if s.Filter != nil {
		f = " filter=" + s.Filter.String()
	}
	return fmt.Sprintf("Scan(%s proj=%v%s)", s.Table, s.Projection, f)
}

// Filter keeps rows where the condition evaluates to true.
type Filter struct {
	Child Node
	Cond  expr.Expr
}

// Schema implements Node.
func (f *Filter) Schema() *catalog.Schema { return f.Child.Schema() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Child} }

// String implements Node.
func (f *Filter) String() string { return fmt.Sprintf("Filter(%s)", f.Cond) }

// Project computes one output column per expression.
type Project struct {
	Child Node
	Exprs []expr.Expr
	Names []string

	out *catalog.Schema
}

// NewProject builds a projection node.
func NewProject(child Node, exprs []expr.Expr, names []string) *Project {
	cols := make([]catalog.Column, len(exprs))
	for i := range exprs {
		cols[i] = catalog.Col(names[i], exprs[i].Type())
	}
	return &Project{Child: child, Exprs: exprs, Names: names, out: catalog.NewSchema(cols...)}
}

// Schema implements Node.
func (p *Project) Schema() *catalog.Schema { return p.out }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// String implements Node.
func (p *Project) String() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = p.Names[i] + "=" + e.String()
	}
	return "Project(" + strings.Join(parts, ", ") + ")"
}

// JoinType enumerates join semantics.
type JoinType uint8

// Supported join types. The build side is always the right child. A semi
// or anti join outputs the left rows that have a match (semi) or none
// (anti) in the right input; a right-semi or right-anti join outputs the
// right rows that have a match or none in the left input. Which of the two
// a plan uses picks the side that is hashed: the right, preserved one of a
// right-semi or right-anti join, the right, tested one of a semi or anti
// join.
const (
	InnerJoin JoinType = iota
	LeftOuterJoin
	SemiJoin
	AntiJoin
	CrossJoin
	RightSemiJoin
	RightAntiJoin
)

var joinNames = [...]string{"INNER", "LEFT_OUTER", "SEMI", "ANTI", "CROSS", "RIGHT_SEMI", "RIGHT_ANTI"}

// String returns the join type name.
func (t JoinType) String() string { return joinNames[t] }

// Join matches rows of Left and Right on equality of the key expressions,
// with an optional extra non-equi condition evaluated over the concatenated
// row. The right child is the hash-build side.
type Join struct {
	Type        JoinType
	Left, Right Node
	LeftKeys    []expr.Expr // over Left schema
	RightKeys   []expr.Expr // over Right schema
	Extra       expr.Expr   // over Left schema ++ Right schema; may be nil

	out *catalog.Schema
}

// NewJoin builds a join node.
func NewJoin(t JoinType, left, right Node, leftKeys, rightKeys []expr.Expr, extra expr.Expr) *Join {
	if len(leftKeys) != len(rightKeys) {
		panic("join: key count mismatch")
	}
	j := &Join{Type: t, Left: left, Right: right, LeftKeys: leftKeys, RightKeys: rightKeys, Extra: extra}
	switch t {
	case SemiJoin, AntiJoin:
		j.out = left.Schema()
	case RightSemiJoin, RightAntiJoin:
		j.out = right.Schema()
	default:
		cols := append([]catalog.Column{}, left.Schema().Columns...)
		cols = append(cols, right.Schema().Columns...)
		j.out = catalog.NewSchema(cols...)
	}
	return j
}

// Schema implements Node.
func (j *Join) Schema() *catalog.Schema { return j.out }

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// String implements Node.
func (j *Join) String() string {
	lk := make([]string, len(j.LeftKeys))
	rk := make([]string, len(j.RightKeys))
	for i := range j.LeftKeys {
		lk[i] = j.LeftKeys[i].String()
		rk[i] = j.RightKeys[i].String()
	}
	ex := ""
	if j.Extra != nil {
		ex = " extra=" + j.Extra.String()
	}
	return fmt.Sprintf("HashJoin(%s l=[%s] r=[%s]%s)", j.Type, strings.Join(lk, ","), strings.Join(rk, ","), ex)
}

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Supported aggregate functions.
const (
	AggSum AggFunc = iota
	AggCount
	AggCountStar
	AggAvg
	AggMin
	AggMax
)

var aggNames = [...]string{"sum", "count", "count_star", "avg", "min", "max"}

// String returns the function name.
func (f AggFunc) String() string { return aggNames[f] }

// ResultType returns the output type of the aggregate for an argument type.
func (f AggFunc) ResultType(arg vector.Type) vector.Type {
	switch f {
	case AggCount, AggCountStar:
		return vector.TypeInt64
	case AggAvg:
		return vector.TypeFloat64
	case AggSum:
		if arg == vector.TypeFloat64 {
			return vector.TypeFloat64
		}
		return vector.TypeInt64
	default: // min/max keep the argument type
		return arg
	}
}

// AggSpec is one aggregate in an Aggregate node.
type AggSpec struct {
	Func     AggFunc
	Arg      expr.Expr // nil for COUNT(*)
	Distinct bool
	Name     string
}

func (a AggSpec) String() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	d := ""
	if a.Distinct {
		d = "distinct "
	}
	return fmt.Sprintf("%s=%s(%s%s)", a.Name, a.Func, d, arg)
}

// ResultType returns the aggregate's output type.
func (a AggSpec) ResultType() vector.Type {
	var at vector.Type
	if a.Arg != nil {
		at = a.Arg.Type()
	}
	return a.Func.ResultType(at)
}

// Aggregate groups rows by the key expressions and computes the aggregates.
// With no group keys it produces exactly one row (global aggregation).
type Aggregate struct {
	Child      Node
	GroupBy    []expr.Expr
	GroupNames []string
	Aggs       []AggSpec

	out *catalog.Schema
}

// NewAggregate builds an aggregation node.
func NewAggregate(child Node, groupBy []expr.Expr, groupNames []string, aggs []AggSpec) *Aggregate {
	cols := make([]catalog.Column, 0, len(groupBy)+len(aggs))
	for i, g := range groupBy {
		cols = append(cols, catalog.Col(groupNames[i], g.Type()))
	}
	for _, a := range aggs {
		cols = append(cols, catalog.Col(a.Name, a.ResultType()))
	}
	return &Aggregate{Child: child, GroupBy: groupBy, GroupNames: groupNames, Aggs: aggs, out: catalog.NewSchema(cols...)}
}

// Schema implements Node.
func (a *Aggregate) Schema() *catalog.Schema { return a.out }

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Child} }

// String implements Node.
func (a *Aggregate) String() string {
	gs := make([]string, len(a.GroupBy))
	for i, g := range a.GroupBy {
		gs[i] = a.GroupNames[i] + "=" + g.String()
	}
	as := make([]string, len(a.Aggs))
	for i, sp := range a.Aggs {
		as[i] = sp.String()
	}
	return fmt.Sprintf("HashAggregate(group=[%s] aggs=[%s])", strings.Join(gs, ","), strings.Join(as, ","))
}

// SortKey is one ORDER BY key.
type SortKey struct {
	Expr expr.Expr
	Desc bool
}

func (k SortKey) String() string {
	dir := "asc"
	if k.Desc {
		dir = "desc"
	}
	return k.Expr.String() + " " + dir
}

// Sort orders rows by the keys; NULLs sort first in ascending order.
type Sort struct {
	Child Node
	Keys  []SortKey
}

// Schema implements Node.
func (s *Sort) Schema() *catalog.Schema { return s.Child.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// String implements Node.
func (s *Sort) String() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.String()
	}
	return "Sort(" + strings.Join(parts, ", ") + ")"
}

// Limit keeps at most N rows after skipping Offset rows. When applied above
// a Sort the physical planner fuses the pair into a top-N operator.
type Limit struct {
	Child  Node
	N      int64
	Offset int64
}

// Schema implements Node.
func (l *Limit) Schema() *catalog.Schema { return l.Child.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Child} }

// String implements Node.
func (l *Limit) String() string { return fmt.Sprintf("Limit(%d offset %d)", l.N, l.Offset) }

// Rename relabels the output columns without changing data; used to alias
// self-joined tables (e.g. Q21's lineitem l1/l2/l3).
type Rename struct {
	Child Node
	out   *catalog.Schema
}

// NewRename relabels every column with the given prefix.
func NewRename(child Node, prefix string) *Rename {
	in := child.Schema()
	cols := make([]catalog.Column, in.Arity())
	for i, c := range in.Columns {
		cols[i] = catalog.Col(prefix+c.Name, c.Type)
	}
	return &Rename{Child: child, out: catalog.NewSchema(cols...)}
}

// Schema implements Node.
func (r *Rename) Schema() *catalog.Schema { return r.out }

// Children implements Node.
func (r *Rename) Children() []Node { return []Node{r.Child} }

// String implements Node.
func (r *Rename) String() string { return "Rename" + r.out.String() }

// Walk visits n and all descendants pre-order.
func Walk(n Node, visit func(Node)) {
	visit(n)
	for _, c := range n.Children() {
		Walk(c, visit)
	}
}

// Tree renders the full plan tree, indented, deterministically.
func Tree(n Node) string {
	var b strings.Builder
	var rec func(Node, int)
	rec = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.String())
		b.WriteString("\n")
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}
