package plan

import (
	"fmt"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/vector"
)

// Builder constructs logical plans with name-based column resolution against
// a catalog. All methods panic on resolution errors: plans are authored in
// code (the TPC-H query suite) where a bad name is a programming error.
type Builder struct {
	cat *catalog.Catalog
}

// NewBuilder returns a Builder over the catalog.
func NewBuilder(cat *catalog.Catalog) *Builder { return &Builder{cat: cat} }

// Rel is a relation under construction.
type Rel struct {
	b    *Builder
	node Node
}

// Node returns the built logical plan.
func (r *Rel) Node() Node { return r.node }

// Schema returns the current output schema.
func (r *Rel) Schema() *catalog.Schema { return r.node.Schema() }

// Scan starts a relation from a base table, projecting the named columns
// (all columns when none are given).
func (b *Builder) Scan(table string, cols ...string) *Rel {
	t, err := b.cat.Table(table)
	if err != nil {
		panic(err)
	}
	schema := t.Schema()
	var proj []int
	if len(cols) == 0 {
		proj = make([]int, schema.Arity())
		for i := range proj {
			proj[i] = i
		}
	} else {
		proj = make([]int, len(cols))
		for i, c := range cols {
			idx := schema.IndexOf(c)
			if idx < 0 {
				panic(fmt.Sprintf("scan %s: no column %q", table, c))
			}
			proj[i] = idx
		}
	}
	return &Rel{b: b, node: NewScan(table, schema, proj, nil)}
}

// Col resolves a column of the current schema to an expression.
func (r *Rel) Col(name string) *expr.Column {
	s := r.node.Schema()
	idx := s.IndexOf(name)
	if idx < 0 {
		panic(fmt.Sprintf("no column %q in %s", name, s))
	}
	return expr.NamedCol(idx, s.Columns[idx].Type, name)
}

// Filter keeps rows satisfying cond. A filter directly above a scan is
// pushed into the scan node so the physical source applies it per morsel.
func (r *Rel) Filter(cond expr.Expr) *Rel {
	mustBeCondition("filter", cond)
	if sc, ok := r.node.(*Scan); ok {
		merged := cond
		if sc.Filter != nil {
			merged = expr.And(sc.Filter, cond)
		}
		return &Rel{b: r.b, node: NewScan(sc.Table, sc.TableSchema, sc.Projection, merged)}
	}
	return &Rel{b: r.b, node: &Filter{Child: r.node, Cond: cond}}
}

// mustBeCondition panics, like the expression constructors do on an operand
// of the wrong type, unless cond is BOOLEAN.
func mustBeCondition(what string, cond expr.Expr) {
	if t := cond.Type(); t != vector.TypeBool {
		panic(fmt.Sprintf("%s condition of type %v", what, t))
	}
}

// Project computes the given named expressions.
func (r *Rel) Project(names []string, exprs ...expr.Expr) *Rel {
	if len(names) != len(exprs) {
		panic("Project: names/exprs length mismatch")
	}
	return &Rel{b: r.b, node: NewProject(r.node, exprs, names)}
}

// Keep projects the named existing columns (a pure column subset).
func (r *Rel) Keep(names ...string) *Rel {
	exprs := make([]expr.Expr, len(names))
	for i, n := range names {
		exprs[i] = r.Col(n)
	}
	return r.Project(names, exprs...)
}

// Rename prefixes every column name (for self-join disambiguation).
func (r *Rel) Rename(prefix string) *Rel {
	return &Rel{b: r.b, node: NewRename(r.node, prefix)}
}

// ColResolver resolves names over the concatenation of two schemas; used to
// express a join's extra (non-equi) condition.
type ColResolver struct {
	schema *catalog.Schema
}

// Col resolves a column of the combined schema.
func (cr ColResolver) Col(name string) *expr.Column {
	idx := cr.schema.IndexOf(name)
	if idx < 0 {
		panic(fmt.Sprintf("no column %q in joined schema %s", name, cr.schema))
	}
	return expr.NamedCol(idx, cr.schema.Columns[idx].Type, name)
}

// Join hash-joins r (probe side) with other (build side) on equality of the
// named key columns.
func (r *Rel) Join(other *Rel, jt JoinType, leftKeys, rightKeys []string) *Rel {
	return r.JoinExtra(other, jt, leftKeys, rightKeys, nil)
}

// JoinExtra is Join with an additional non-equi condition built over the
// concatenated (left ++ right) schema.
func (r *Rel) JoinExtra(other *Rel, jt JoinType, leftKeys, rightKeys []string, extra func(ColResolver) expr.Expr) *Rel {
	lk := make([]expr.Expr, len(leftKeys))
	for i, k := range leftKeys {
		lk[i] = r.Col(k)
	}
	rk := make([]expr.Expr, len(rightKeys))
	for i, k := range rightKeys {
		rk[i] = other.Col(k)
	}
	var extraExpr expr.Expr
	if extra != nil {
		cols := append([]catalog.Column{}, r.Schema().Columns...)
		cols = append(cols, other.Schema().Columns...)
		extraExpr = extra(ColResolver{schema: catalog.NewSchema(cols...)})
		mustBeCondition("join", extraExpr)
	}
	return &Rel{b: r.b, node: NewJoin(jt, r.node, other.node, lk, rk, extraExpr)}
}

// Cross produces the cartesian product with other (typically a 1-row
// aggregate used to decorrelate a scalar subquery).
func (r *Rel) Cross(other *Rel) *Rel {
	return &Rel{b: r.b, node: NewJoin(CrossJoin, r.node, other.node, nil, nil, nil)}
}

// Sum builds a SUM aggregate spec.
func Sum(arg expr.Expr, name string) AggSpec { return AggSpec{Func: AggSum, Arg: arg, Name: name} }

// Count builds a COUNT(arg) aggregate spec.
func Count(arg expr.Expr, name string) AggSpec {
	return AggSpec{Func: AggCount, Arg: arg, Name: name}
}

// CountDistinct builds a COUNT(DISTINCT arg) aggregate spec.
func CountDistinct(arg expr.Expr, name string) AggSpec {
	return AggSpec{Func: AggCount, Arg: arg, Distinct: true, Name: name}
}

// CountStar builds a COUNT(*) aggregate spec.
func CountStar(name string) AggSpec { return AggSpec{Func: AggCountStar, Name: name} }

// Avg builds an AVG aggregate spec.
func Avg(arg expr.Expr, name string) AggSpec { return AggSpec{Func: AggAvg, Arg: arg, Name: name} }

// Min builds a MIN aggregate spec.
func Min(arg expr.Expr, name string) AggSpec { return AggSpec{Func: AggMin, Arg: arg, Name: name} }

// Max builds a MAX aggregate spec.
func Max(arg expr.Expr, name string) AggSpec { return AggSpec{Func: AggMax, Arg: arg, Name: name} }

// Agg groups by the named columns and computes the aggregate specs, whose
// argument expressions are resolved against the pre-aggregation schema.
func (r *Rel) Agg(groupCols []string, aggs ...AggSpec) *Rel {
	gb := make([]expr.Expr, len(groupCols))
	for i, g := range groupCols {
		gb[i] = r.Col(g)
	}
	return &Rel{b: r.b, node: NewAggregate(r.node, gb, groupCols, aggs)}
}

// AggExprs groups by arbitrary named expressions.
func (r *Rel) AggExprs(groupNames []string, groupExprs []expr.Expr, aggs ...AggSpec) *Rel {
	if len(groupNames) != len(groupExprs) {
		panic("AggExprs: names/exprs length mismatch")
	}
	return &Rel{b: r.b, node: NewAggregate(r.node, groupExprs, groupNames, aggs)}
}

// Asc is an ascending sort key on a named column.
func Asc(name string) SortSpec { return SortSpec{Name: name} }

// Desc is a descending sort key on a named column.
func Desc(name string) SortSpec { return SortSpec{Name: name, Descending: true} }

// SortSpec names a sort key for the builder (column name or raw expression).
type SortSpec struct {
	Name       string
	Expr       expr.Expr
	Descending bool
}

// Sort orders the relation by the given keys.
func (r *Rel) Sort(keys ...SortSpec) *Rel {
	ks := make([]SortKey, len(keys))
	for i, k := range keys {
		e := k.Expr
		if e == nil {
			e = r.Col(k.Name)
		}
		ks[i] = SortKey{Expr: e, Desc: k.Descending}
	}
	return &Rel{b: r.b, node: &Sort{Child: r.node, Keys: ks}}
}

// Limit keeps the first n rows.
func (r *Rel) Limit(n int64) *Rel {
	return &Rel{b: r.b, node: &Limit{Child: r.node, N: n}}
}
