package expr

import (
	"fmt"

	"github.com/riveterdb/riveter/internal/engine/kernel"
	"github.com/riveterdb/riveter/internal/vector"
)

// Selection is the compiled form of a condition rows are kept by — a
// filter's and a hash join's residual — and the only way one is run. It
// narrows one selection vector conjunct by conjunct instead of evaluating
// the condition into a boolean column: the condition's top-level AND splits
// into conjuncts, and each conjunct of a shape a generated kernel covers
// runs as one branch-free selection kernel:
//
//   - a column against a constant or against a column, = <> < <= > >= over
//     BIGINT, DATE, DOUBLE and VARCHAR;
//   - a column IN a list of constants;
//   - a column IS [NOT] NULL;
//   - a column LIKE a pattern, through its compiled matcher.
//
// The first of them selects from every row of the chunk; each later one
// keeps, in place, the rows that passed so far, reading only those. A
// conjunct over a column with NULLs drops that column's NULL rows first.
// The other conjuncts run as one Program over the whole chunk, after the
// kernel conjuncts and only if a row is left, and keep the rows on which
// they are true. The rows kept, ascending, are those on which the condition
// is true (NULL is not): the rows Program.Eval of the condition marks true.
//
// A Selection is immutable and shareable across workers; the Program's
// registers live in SelectionInstances.
type Selection struct {
	cols      []*Column  // every column the condition reads, each once
	conjuncts []conjunct // the kernel conjuncts, in written order
	rest      *Program   // the other conjuncts, ANDed in written order; nil for none
}

// conjunct is one kernel conjunct: the columns whose NULL rows it drops
// before it runs, and its kernel.
type conjunct struct {
	nullable []int
	refine   refineFn
}

// refineFn narrows a selection over c by one conjunct. With dense it writes
// the rows of c that pass into sel, which holds c.Len() entries; otherwise
// it keeps the rows of sel that pass. It returns the kept prefix of sel.
type refineFn func(c *vector.Chunk, sel []int32, dense bool) []int32

// CompileSelection compiles cond, which must be BOOLEAN, into a selection.
// It fails where CompileProgram fails on cond.
func CompileSelection(cond Expr) (*Selection, error) {
	if t := cond.Type(); t != vector.TypeBool {
		return nil, fmt.Errorf("filter condition of type %v", t)
	}
	if err := check(cond); err != nil {
		return nil, fmt.Errorf("expr: %w", err)
	}
	cols := appendColumns(nil, cond)
	s := &Selection{cols: cols[:0]}
	for _, c := range cols {
		if !hasColumn(s.cols, c) {
			s.cols = append(s.cols, c)
		}
	}
	if rest := s.split(cond, nil); len(rest) > 0 {
		s.rest = &Program{root: And(rest...), typ: vector.TypeBool}
	}
	return s, nil
}

// SelectionInstance is the mutable state of one Selection: the registers of
// its Program. Instances are not safe for concurrent use; give each worker
// its own.
type SelectionInstance struct {
	s    *Selection
	rest *Instance
}

// NewInstance builds a fresh instance of the selection.
func (s *Selection) NewInstance() *SelectionInstance {
	in := &SelectionInstance{s: s}
	if s.rest != nil {
		in.rest = s.rest.NewInstance()
	}
	return in
}

// Select returns, ascending, the rows of c on which the condition is true,
// in sel's storage, which it replaces when it holds fewer than c.Len()
// entries. It fails when a column the condition reads is not in c with its
// bound type, whichever rows are left.
func (in *SelectionInstance) Select(c *vector.Chunk, sel []int32) ([]int32, error) {
	s := in.s
	for _, col := range s.cols {
		if _, err := bindColumn(col, c); err != nil {
			return nil, err
		}
	}
	n := c.Len()
	if cap(sel) < n {
		sel = make([]int32, n)
	}
	sel = sel[:n]
	dense := true
	for _, cj := range s.conjuncts {
		if !dense && len(sel) == 0 {
			return sel, nil
		}
		for _, i := range cj.nullable {
			if v := c.Col(i); v.HasNulls() {
				sel = selectNulls(sel, v.NullWords(), n, true, dense)
				dense = false
			}
		}
		sel = cj.refine(c, sel, dense)
		dense = false
	}
	if s.rest == nil || !dense && len(sel) == 0 {
		return sel, nil
	}
	v, err := in.rest.Eval(c)
	if err != nil {
		return nil, err
	}
	if dense {
		return kernel.SelectTrue(sel, v.Bools(), v.NullWords(), n), nil
	}
	return kernel.RefineTrue(sel, v.Bools(), v.NullWords()), nil
}

// selectNulls keeps the rows whose null bit is set (under negate, clear):
// of all n rows when dense, else of sel.
func selectNulls(sel []int32, nulls []uint64, n int, negate, dense bool) []int32 {
	if dense {
		return kernel.SelectNulls(sel, nulls, n, negate)
	}
	return kernel.RefineNulls(sel, nulls, negate)
}

// split appends the kernel conjuncts of e's top-level AND, nested ANDs
// flattened in written order, to s.conjuncts, and the others to rest.
func (s *Selection) split(e Expr, rest []Expr) []Expr {
	if a, ok := e.(*AndExpr); ok {
		for _, arg := range a.Args {
			rest = s.split(arg, rest)
		}
		return rest
	}
	if cj, ok := kernelConjunct(e); ok {
		s.conjuncts = append(s.conjuncts, cj)
		return rest
	}
	return append(rest, e)
}

// appendColumns appends every column node under e, which check vetted.
func appendColumns(dst []*Column, e Expr) []*Column {
	switch x := e.(type) {
	case *Column:
		return append(dst, x)
	case *Cast:
		return appendColumns(dst, x.In)
	case *Arith:
		return appendColumns(appendColumns(dst, x.L), x.R)
	case *Compare:
		return appendColumns(appendColumns(dst, x.L), x.R)
	case *AndExpr:
		for _, a := range x.Args {
			dst = appendColumns(dst, a)
		}
	case *OrExpr:
		for _, a := range x.Args {
			dst = appendColumns(dst, a)
		}
	case *NotExpr:
		return appendColumns(dst, x.In)
	case *IsNullExpr:
		return appendColumns(dst, x.In)
	case *InExpr:
		return appendColumns(dst, x.In)
	case *LikeExpr:
		return appendColumns(dst, x.In)
	case *ExtractExpr:
		return appendColumns(dst, x.In)
	case *SubstrExpr:
		return appendColumns(dst, x.In)
	case *CaseExpr:
		for _, w := range x.Whens {
			dst = appendColumns(dst, w)
		}
		for _, t := range x.Thens {
			dst = appendColumns(dst, t)
		}
		if x.Else != nil {
			dst = appendColumns(dst, x.Else)
		}
	}
	return dst
}

func hasColumn(cols []*Column, c *Column) bool {
	for _, x := range cols {
		if x.Index == c.Index && x.Typ == c.Typ {
			return true
		}
	}
	return false
}

// kernelConjunct compiles e into a kernel conjunct when its shape has one.
func kernelConjunct(e Expr) (conjunct, bool) {
	switch x := e.(type) {
	case *Compare:
		if x.L.Type() == vector.TypeBool {
			return conjunct{}, false
		}
		l, lcol := x.L.(*Column)
		r, rcol := x.R.(*Column)
		if lcol && rcol {
			nullable := []int{l.Index}
			if r.Index != l.Index {
				nullable = append(nullable, r.Index)
			}
			return conjunct{nullable, compareColumns(x.Op, l, r.Index)}, true
		}
		if lcol {
			if s, ok := foldConst(x.R); ok {
				return conjunct{[]int{l.Index}, compareConst(x.Op, l, s)}, true
			}
		}
		if rcol {
			if s, ok := foldConst(x.L); ok {
				return conjunct{[]int{r.Index}, compareConst(flipCmp(x.Op), r, s)}, true
			}
		}
	case *InExpr:
		if col, ok := x.In.(*Column); ok {
			if f, ok := inList(x, col); ok {
				return conjunct{[]int{col.Index}, f}, true
			}
		}
	case *IsNullExpr:
		if col, ok := x.In.(*Column); ok {
			i, negate := col.Index, x.Negate
			return conjunct{nil, func(c *vector.Chunk, sel []int32, dense bool) []int32 {
				return selectNulls(sel, c.Col(i).NullWords(), c.Len(), negate, dense)
			}}, true
		}
	case *LikeExpr:
		if col, ok := x.In.(*Column); ok {
			i, m, negate := col.Index, compileLike(x.Pattern), x.Negate
			return conjunct{[]int{i}, func(c *vector.Chunk, sel []int32, dense bool) []int32 {
				if dense {
					sel = kernel.SelectAll(sel, c.Len())
				}
				return m.refine(sel, c.Col(i).Strings(), negate)
			}}, true
		}
	}
	return conjunct{}, false
}

// The kernels of each comparison op, indexed by CmpOp, against a constant
// and against a column.
var (
	int64Scalar = [...][2]func([]int32, []int64, int64) []int32{
		{kernel.SelectEqInt64Scalar, kernel.RefineEqInt64Scalar},
		{kernel.SelectNeInt64Scalar, kernel.RefineNeInt64Scalar},
		{kernel.SelectLtInt64Scalar, kernel.RefineLtInt64Scalar},
		{kernel.SelectLeInt64Scalar, kernel.RefineLeInt64Scalar},
		{kernel.SelectGtInt64Scalar, kernel.RefineGtInt64Scalar},
		{kernel.SelectGeInt64Scalar, kernel.RefineGeInt64Scalar},
	}
	float64Scalar = [...][2]func([]int32, []float64, float64) []int32{
		{kernel.SelectEqFloat64Scalar, kernel.RefineEqFloat64Scalar},
		{kernel.SelectNeFloat64Scalar, kernel.RefineNeFloat64Scalar},
		{kernel.SelectLtFloat64Scalar, kernel.RefineLtFloat64Scalar},
		{kernel.SelectLeFloat64Scalar, kernel.RefineLeFloat64Scalar},
		{kernel.SelectGtFloat64Scalar, kernel.RefineGtFloat64Scalar},
		{kernel.SelectGeFloat64Scalar, kernel.RefineGeFloat64Scalar},
	}
	stringScalar = [...][2]func([]int32, []string, string) []int32{
		{kernel.SelectEqStringScalar, kernel.RefineEqStringScalar},
		{kernel.SelectNeStringScalar, kernel.RefineNeStringScalar},
		{kernel.SelectLtStringScalar, kernel.RefineLtStringScalar},
		{kernel.SelectLeStringScalar, kernel.RefineLeStringScalar},
		{kernel.SelectGtStringScalar, kernel.RefineGtStringScalar},
		{kernel.SelectGeStringScalar, kernel.RefineGeStringScalar},
	}
	int64Vec = [...][2]func([]int32, []int64, []int64) []int32{
		{kernel.SelectEqInt64, kernel.RefineEqInt64},
		{kernel.SelectNeInt64, kernel.RefineNeInt64},
		{kernel.SelectLtInt64, kernel.RefineLtInt64},
		{kernel.SelectLeInt64, kernel.RefineLeInt64},
		{kernel.SelectGtInt64, kernel.RefineGtInt64},
		{kernel.SelectGeInt64, kernel.RefineGeInt64},
	}
	float64Vec = [...][2]func([]int32, []float64, []float64) []int32{
		{kernel.SelectEqFloat64, kernel.RefineEqFloat64},
		{kernel.SelectNeFloat64, kernel.RefineNeFloat64},
		{kernel.SelectLtFloat64, kernel.RefineLtFloat64},
		{kernel.SelectLeFloat64, kernel.RefineLeFloat64},
		{kernel.SelectGtFloat64, kernel.RefineGtFloat64},
		{kernel.SelectGeFloat64, kernel.RefineGeFloat64},
	}
	stringVec = [...][2]func([]int32, []string, []string) []int32{
		{kernel.SelectEqString, kernel.RefineEqString},
		{kernel.SelectNeString, kernel.RefineNeString},
		{kernel.SelectLtString, kernel.RefineLtString},
		{kernel.SelectLeString, kernel.RefineLeString},
		{kernel.SelectGtString, kernel.RefineGtString},
		{kernel.SelectGeString, kernel.RefineGeString},
	}
)

// scalarStep runs the kernel pair k of column col against the constant x;
// data reads the column's values.
func scalarStep[T any](k [2]func([]int32, []T, T) []int32, col int, x T, data func(*vector.Vector) []T) refineFn {
	return func(c *vector.Chunk, sel []int32, dense bool) []int32 {
		a := data(c.Col(col))[:c.Len()]
		if dense {
			return k[0](sel, a, x)
		}
		return k[1](sel, a, x)
	}
}

// vecStep runs the kernel pair k of column l against column r.
func vecStep[T any](k [2]func([]int32, []T, []T) []int32, l, r int, data func(*vector.Vector) []T) refineFn {
	return func(c *vector.Chunk, sel []int32, dense bool) []int32 {
		n := c.Len()
		a, b := data(c.Col(l))[:n], data(c.Col(r))[:n]
		if dense {
			return k[0](sel, a, b)
		}
		return k[1](sel, a, b)
	}
}

// compareConst is column col op s; check made s's type col's or, both
// stored as int64, one of BIGINT and DATE.
func compareConst(op CmpOp, col *Column, s vector.Value) refineFn {
	switch col.Typ {
	case vector.TypeFloat64:
		return scalarStep(float64Scalar[op], col.Index, s.F, (*vector.Vector).Float64s)
	case vector.TypeString:
		return scalarStep(stringScalar[op], col.Index, s.S, (*vector.Vector).Strings)
	default:
		return scalarStep(int64Scalar[op], col.Index, s.I, (*vector.Vector).Int64s)
	}
}

// compareColumns is column l op column r, of l's type or, both stored as
// int64, one of BIGINT and DATE.
func compareColumns(op CmpOp, l *Column, r int) refineFn {
	switch l.Typ {
	case vector.TypeFloat64:
		return vecStep(float64Vec[op], l.Index, r, (*vector.Vector).Float64s)
	case vector.TypeString:
		return vecStep(stringVec[op], l.Index, r, (*vector.Vector).Strings)
	default:
		return vecStep(int64Vec[op], l.Index, r, (*vector.Vector).Int64s)
	}
}

// inList runs x, whose input is column col, as an IN kernel when its
// candidates are of col's domain; a list that promotes col to DOUBLE, and a
// BOOLEAN one, stay on the Program.
func inList(x *InExpr, col *Column) (refineFn, bool) {
	dom, _ := inDomain(x) // vetted by check
	if dom == vector.TypeFloat64 && col.Typ != dom || dom == vector.TypeBool {
		return nil, false
	}
	var (
		ints   []int64
		floats []float64
		strs   []string
	)
	for _, c := range x.List {
		switch {
		case c.Null:
		case dom == vector.TypeFloat64:
			floats = append(floats, inCandidate(c, dom).F)
		case dom == vector.TypeString:
			strs = append(strs, c.S)
		default:
			ints = append(ints, c.I)
		}
	}
	i, negate := col.Index, x.Negate
	switch dom {
	case vector.TypeFloat64:
		return inStep(kernel.SelectInFloat64, kernel.RefineInFloat64, i, floats, negate, (*vector.Vector).Float64s), true
	case vector.TypeString:
		return inStep(kernel.SelectInString, kernel.RefineInString, i, strs, negate, (*vector.Vector).Strings), true
	default:
		return inStep(kernel.SelectInInt64, kernel.RefineInInt64, i, ints, negate, (*vector.Vector).Int64s), true
	}
}

// inStep runs the IN kernels of column col against list.
func inStep[T any](sel, refine func([]int32, []T, []T, bool) []int32, col int, list []T, negate bool, data func(*vector.Vector) []T) refineFn {
	return func(c *vector.Chunk, s []int32, dense bool) []int32 {
		a := data(c.Col(col))[:c.Len()]
		if dense {
			return sel(s, a, list, negate)
		}
		return refine(s, a, list, negate)
	}
}
