package expr

import (
	"fmt"

	"github.com/riveterdb/riveter/internal/engine/kernel"
	"github.com/riveterdb/riveter/internal/vector"
)

// Program is the compiled columnar form of an expression tree and the only
// way one is evaluated: filters, projections, aggregate arguments and group
// keys, sort keys, join keys and join residuals all run as programs. A
// program instance owns one reusable register vector per node and dispatches
// its inner loops to the type-specialized kernels in internal/engine/kernel.
//
// Its semantics are pinned from outside: EvalScalar is an independent boxed
// evaluator tests compare it with row by row, and the recorded TPC-H result
// digests fix its bytes. Registers uphold the zero-backing-under-null storage
// invariant (null rows hold the zero value, which the chunk hash and the
// checkpoint codec both observe).
//
// A Program is immutable and shareable across workers; all mutable state
// lives in Instances (one per worker or pooled scratch).
type Program struct {
	root Expr
	typ  vector.Type
}

// CompileProgram compiles e into a columnar program. It returns an error,
// never a nil program, for a node type it has no evaluator for and for a
// statically ill-typed node. The constructors reject ill-typed operands
// themselves, so the type checks here only guard struct literals assembled
// by hand. One check is left to run time: a column's bound type against the
// chunk it is handed.
func CompileProgram(e Expr) (*Program, error) {
	if err := check(e); err != nil {
		return nil, fmt.Errorf("expr: %w", err)
	}
	return &Program{root: e, typ: e.Type()}, nil
}

// OutType returns the program's statically known result type.
func (p *Program) OutType() vector.Type { return p.typ }

// String renders the underlying expression (plan-fingerprint form).
func (p *Program) String() string { return p.root.String() }

// intRepr reports whether t is stored as int64 (DATE arithmetic and
// comparisons against BIGINT stay in that domain).
func intRepr(t vector.Type) bool { return t == vector.TypeInt64 || t == vector.TypeDate }

// check vets every node under e: a known node type, operands of the type
// the node's evaluator reads, and a valid type at every leaf — so that an
// Instance can only fail on a chunk that does not match its column bindings.
func check(e Expr) error {
	switch x := e.(type) {
	case *Column:
		if !x.Typ.Valid() {
			return fmt.Errorf("column %d of type %v", x.Index, x.Typ)
		}
		return nil
	case *Const:
		if !x.Val.Type.Valid() {
			return fmt.Errorf("literal of type %v", x.Val.Type)
		}
		return nil
	case *Cast:
		from := x.In.Type()
		toF := x.To == vector.TypeFloat64 && intRepr(from)
		toI := x.To == vector.TypeInt64 && from == vector.TypeFloat64
		if from != x.To && !toF && !toI {
			return fmt.Errorf("unsupported cast %v -> %v", from, x.To)
		}
		return check(x.In)
	case *Arith:
		lt, rt := x.L.Type(), x.R.Type()
		ints := intRepr(x.typ) && x.Op != OpDiv && intRepr(lt) && intRepr(rt)
		floats := x.typ == vector.TypeFloat64 && lt == x.typ && rt == x.typ
		if !ints && !floats {
			return fmt.Errorf("arith %v yielding %v over %v and %v", x.Op, x.typ, lt, rt)
		}
		return checkAll(x.L, x.R)
	case *Compare:
		if lt, rt := x.L.Type(), x.R.Type(); lt != rt && !(intRepr(lt) && intRepr(rt)) {
			return fmt.Errorf("compare type mismatch: %v vs %v", lt, rt)
		}
		return checkAll(x.L, x.R)
	case *AndExpr:
		return checkOperands(connectiveOver, vector.TypeBool, x.Args...)
	case *OrExpr:
		return checkOperands(connectiveOver, vector.TypeBool, x.Args...)
	case *NotExpr:
		return checkOperands(notOver, vector.TypeBool, x.In)
	case *IsNullExpr:
		return check(x.In)
	case *InExpr:
		if _, err := inDomain(x); err != nil {
			return err
		}
		return check(x.In)
	case *LikeExpr:
		return checkOperands(likeOver, vector.TypeString, x.In)
	case *ExtractExpr:
		return checkOperands(extractOver, vector.TypeDate, x.In)
	case *SubstrExpr:
		return checkOperands(substringOver, vector.TypeString, x.In)
	case *CaseExpr:
		if len(x.Whens) == 0 || len(x.Whens) != len(x.Thens) || !x.typ.Valid() {
			return fmt.Errorf("malformed CASE of type %v: %d conditions, %d branches", x.typ, len(x.Whens), len(x.Thens))
		}
		if err := checkOperands(caseCondition, vector.TypeBool, x.Whens...); err != nil {
			return err
		}
		branches := x.Thens
		if x.Else != nil {
			branches = append(branches[:len(branches):len(branches)], x.Else)
		}
		return checkOperands(caseBranch, x.typ, branches...)
	default:
		return fmt.Errorf("no program for node %T (%s)", e, e)
	}
}

func checkAll(es ...Expr) error {
	for _, e := range es {
		if err := check(e); err != nil {
			return err
		}
	}
	return nil
}

// checkOperands vets operands that must all have type want; format is the
// operandErr wording for one that does not.
func checkOperands(format string, want vector.Type, es ...Expr) error {
	for _, e := range es {
		if err := operandErr(format, e, want); err != nil {
			return err
		}
	}
	return checkAll(es...)
}

// Instance is the mutable evaluation state of one Program: one register
// vector per node, reused across chunks. The vector returned by Eval is
// owned by the instance (or aliases an input column) and is valid only
// until the next Eval. Instances are not safe for concurrent use; give
// each worker its own.
type Instance struct {
	eval evalFn
}

type evalFn func(c *vector.Chunk) (*vector.Vector, error)

// NewInstance builds a fresh register set for the program.
func (p *Program) NewInstance() *Instance {
	return &Instance{eval: buildNode(p.root)}
}

// Eval evaluates the program over every row of the chunk.
func (in *Instance) Eval(c *vector.Chunk) (*vector.Vector, error) { return in.eval(c) }

// buildNode compiles one node into its evaluator closure. CompileProgram
// vetted the tree, so an unknown node here is a bug.
func buildNode(e Expr) evalFn {
	switch x := e.(type) {
	case *Column:
		return buildColumn(x)
	case *Const:
		return buildConst(x)
	case *Cast:
		return buildCast(x)
	case *Arith:
		return buildArith(x)
	case *Compare:
		return buildCompare(x)
	case *AndExpr:
		return buildConnective(x.Args, true)
	case *OrExpr:
		return buildConnective(x.Args, false)
	case *NotExpr:
		return buildNot(x)
	case *IsNullExpr:
		return buildIsNull(x)
	case *InExpr:
		return buildIn(x)
	case *LikeExpr:
		return buildLike(x)
	case *ExtractExpr:
		return buildExtract(x)
	case *SubstrExpr:
		return buildSubstr(x)
	case *CaseExpr:
		return buildCase(x)
	default:
		panic(fmt.Sprintf("program: unchecked node %T escaped CompileProgram", e))
	}
}

// copyNulls transfers src's null bits onto out (whose bitmap was cleared by
// the preceding Resize) and reports whether any bit is set.
func copyNulls(out, src *vector.Vector, n int) bool {
	sw := src.NullWords()
	if len(sw) == 0 {
		return false
	}
	w := out.EnsureNullWords(n)
	kernel.OrWords(w, sw)
	return kernel.AnyWord(w)
}

// mergeNulls2 ors both operands' null bits onto out; reports any set.
func mergeNulls2(out, a, b *vector.Vector, n int) bool {
	aw, bw := a.NullWords(), b.NullWords()
	if len(aw) == 0 && len(bw) == 0 {
		return false
	}
	w := out.EnsureNullWords(n)
	kernel.OrWords(w, aw)
	kernel.OrWords(w, bw)
	return kernel.AnyWord(w)
}

// foldConst resolves e to a non-null compile-time constant, looking through
// the numeric casts promote inserts around literals.
func foldConst(e Expr) (vector.Value, bool) {
	switch x := e.(type) {
	case *Const:
		if x.Val.Null {
			return vector.Value{}, false
		}
		return x.Val, true
	case *Cast:
		v, ok := foldConst(x.In)
		if !ok {
			return vector.Value{}, false
		}
		from := x.In.Type()
		switch {
		case from == x.To:
			return v, true
		case x.To == vector.TypeFloat64 && (from == vector.TypeInt64 || from == vector.TypeDate):
			return vector.NewFloat64(float64(v.I)), true
		case x.To == vector.TypeInt64 && from == vector.TypeFloat64:
			return vector.NewInt64(int64(v.F)), true
		}
		return vector.Value{}, false
	default:
		return vector.Value{}, false
	}
}

func buildColumn(x *Column) evalFn {
	return func(c *vector.Chunk) (*vector.Vector, error) { return bindColumn(x, c) }
}

// bindColumn returns x's column of c, which must be there with x's type.
func bindColumn(x *Column, c *vector.Chunk) (*vector.Vector, error) {
	if x.Index < 0 || x.Index >= c.NumCols() {
		return nil, fmt.Errorf("column index %d out of range (%d cols)", x.Index, c.NumCols())
	}
	v := c.Col(x.Index)
	if v.Type() != x.Typ {
		return nil, fmt.Errorf("column %d: bound type %v but chunk has %v", x.Index, x.Typ, v.Type())
	}
	return v, nil
}

func buildConst(x *Const) evalFn {
	reg := vector.New(x.Val.Type, 0)
	val := x.Val
	return func(c *vector.Chunk) (*vector.Vector, error) {
		n := c.Len()
		if val.Null {
			reg.Reset()
			for i := 0; i < n; i++ {
				reg.AppendNull()
			}
			return reg, nil
		}
		switch val.Type {
		case vector.TypeInt64, vector.TypeDate:
			kernel.FillInt64(reg.ResizeInt64(n), val.I)
		case vector.TypeFloat64:
			kernel.FillFloat64(reg.ResizeFloat64(n), val.F)
		case vector.TypeString:
			kernel.FillString(reg.ResizeString(n), val.S)
		case vector.TypeBool:
			kernel.FillBool(reg.ResizeBool(n), val.B)
		}
		return reg, nil
	}
}

func buildCast(x *Cast) evalFn {
	inf := buildNode(x.In)
	if x.In.Type() == x.To {
		return inf
	}
	reg := vector.New(x.To, 0)
	toFloat := x.To == vector.TypeFloat64
	return func(c *vector.Chunk) (*vector.Vector, error) {
		av, err := inf(c)
		if err != nil {
			return nil, err
		}
		n := av.Len()
		if toFloat {
			dst := reg.ResizeFloat64(n)
			src := av.Int64s()
			for i := range dst {
				dst[i] = float64(src[i])
			}
			if copyNulls(reg, av, n) {
				kernel.ZeroNullsFloat64(dst, reg.NullWords())
			}
		} else {
			dst := reg.ResizeInt64(n)
			src := av.Float64s()
			for i := range dst {
				dst[i] = int64(src[i])
			}
			if copyNulls(reg, av, n) {
				kernel.ZeroNullsInt64(dst, reg.NullWords())
			}
		}
		return reg, nil
	}
}

func buildArith(x *Arith) evalFn {
	if s, ok := foldConst(x.R); ok {
		return arithScalar(x.Op, x.typ, buildNode(x.L), s, false)
	}
	if s, ok := foldConst(x.L); ok {
		return arithScalar(x.Op, x.typ, buildNode(x.R), s, true)
	}
	lf, rf := buildNode(x.L), buildNode(x.R)
	reg := vector.New(x.typ, 0)
	op, typ := x.Op, x.typ
	return func(c *vector.Chunk) (*vector.Vector, error) {
		lv, err := lf(c)
		if err != nil {
			return nil, err
		}
		rv, err := rf(c)
		if err != nil {
			return nil, err
		}
		n := lv.Len()
		if typ == vector.TypeFloat64 {
			dst := reg.ResizeFloat64(n)
			ls, rs := lv.Float64s(), rv.Float64s()
			if op == OpDiv {
				w := reg.EnsureNullWords(n)
				kernel.OrWords(w, lv.NullWords())
				kernel.OrWords(w, rv.NullWords())
				kernel.DivFloat64(dst, ls, rs, w)
				if kernel.AnyWord(w) {
					kernel.ZeroNullsFloat64(dst, w)
				}
				return reg, nil
			}
			switch op {
			case OpAdd:
				kernel.AddFloat64(dst, ls, rs)
			case OpSub:
				kernel.SubFloat64(dst, ls, rs)
			case OpMul:
				kernel.MulFloat64(dst, ls, rs)
			}
			if mergeNulls2(reg, lv, rv, n) {
				kernel.ZeroNullsFloat64(dst, reg.NullWords())
			}
			return reg, nil
		}
		dst := reg.ResizeInt64(n)
		ls, rs := lv.Int64s(), rv.Int64s()
		switch op {
		case OpAdd:
			kernel.AddInt64(dst, ls, rs)
		case OpSub:
			kernel.SubInt64(dst, ls, rs)
		case OpMul:
			kernel.MulInt64(dst, ls, rs)
		}
		if mergeNulls2(reg, lv, rv, n) {
			kernel.ZeroNullsInt64(dst, reg.NullWords())
		}
		return reg, nil
	}
}

// arithScalar evaluates vec ⊕ const (or const ⊕ vec when scalarLeft) without
// materializing the constant.
func arithScalar(op ArithOp, typ vector.Type, vf evalFn, s vector.Value, scalarLeft bool) evalFn {
	reg := vector.New(typ, 0)
	return func(c *vector.Chunk) (*vector.Vector, error) {
		av, err := vf(c)
		if err != nil {
			return nil, err
		}
		n := av.Len()
		if typ == vector.TypeFloat64 {
			dst := reg.ResizeFloat64(n)
			vs := av.Float64s()
			x := s.F
			if op == OpDiv {
				w := reg.EnsureNullWords(n)
				kernel.OrWords(w, av.NullWords())
				if scalarLeft {
					kernel.DivFloat64ScalarL(dst, x, vs, w)
				} else {
					kernel.DivFloat64Scalar(dst, vs, x, w)
				}
				if kernel.AnyWord(w) {
					kernel.ZeroNullsFloat64(dst, w)
				}
				return reg, nil
			}
			switch op {
			case OpAdd:
				if scalarLeft {
					kernel.AddFloat64ScalarL(dst, x, vs)
				} else {
					kernel.AddFloat64Scalar(dst, vs, x)
				}
			case OpSub:
				if scalarLeft {
					kernel.SubFloat64ScalarL(dst, x, vs)
				} else {
					kernel.SubFloat64Scalar(dst, vs, x)
				}
			case OpMul:
				if scalarLeft {
					kernel.MulFloat64ScalarL(dst, x, vs)
				} else {
					kernel.MulFloat64Scalar(dst, vs, x)
				}
			}
			if copyNulls(reg, av, n) {
				kernel.ZeroNullsFloat64(dst, reg.NullWords())
			}
			return reg, nil
		}
		dst := reg.ResizeInt64(n)
		vs := av.Int64s()
		x := s.I
		switch op {
		case OpAdd:
			if scalarLeft {
				kernel.AddInt64ScalarL(dst, x, vs)
			} else {
				kernel.AddInt64Scalar(dst, vs, x)
			}
		case OpSub:
			if scalarLeft {
				kernel.SubInt64ScalarL(dst, x, vs)
			} else {
				kernel.SubInt64Scalar(dst, vs, x)
			}
		case OpMul:
			if scalarLeft {
				kernel.MulInt64ScalarL(dst, x, vs)
			} else {
				kernel.MulInt64Scalar(dst, vs, x)
			}
		}
		if copyNulls(reg, av, n) {
			kernel.ZeroNullsInt64(dst, reg.NullWords())
		}
		return reg, nil
	}
}

// flipCmp mirrors an operator across the operands: s op v ⇔ v flip(op) s.
func flipCmp(op CmpOp) CmpOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}

func buildCompare(x *Compare) evalFn {
	lt := x.L.Type()
	// Bool comparisons stay on the materialized path (no kernels; rare).
	if lt != vector.TypeBool {
		if s, ok := foldConst(x.R); ok {
			return compareScalar(x.Op, buildNode(x.L), s)
		}
		if s, ok := foldConst(x.L); ok {
			return compareScalar(flipCmp(x.Op), buildNode(x.R), s)
		}
	}
	lf, rf := buildNode(x.L), buildNode(x.R)
	reg := vector.New(vector.TypeBool, 0)
	op := x.Op
	return func(c *vector.Chunk) (*vector.Vector, error) {
		lv, err := lf(c)
		if err != nil {
			return nil, err
		}
		rv, err := rf(c)
		if err != nil {
			return nil, err
		}
		n := lv.Len()
		dst := reg.ResizeBool(n)
		switch lv.Type() {
		case vector.TypeInt64, vector.TypeDate:
			ls, rs := lv.Int64s(), rv.Int64s()
			switch op {
			case OpEq:
				kernel.EqInt64(dst, ls, rs)
			case OpNe:
				kernel.NeInt64(dst, ls, rs)
			case OpLt:
				kernel.LtInt64(dst, ls, rs)
			case OpLe:
				kernel.LeInt64(dst, ls, rs)
			case OpGt:
				kernel.GtInt64(dst, ls, rs)
			default:
				kernel.GeInt64(dst, ls, rs)
			}
		case vector.TypeFloat64:
			ls, rs := lv.Float64s(), rv.Float64s()
			switch op {
			case OpEq:
				kernel.EqFloat64(dst, ls, rs)
			case OpNe:
				kernel.NeFloat64(dst, ls, rs)
			case OpLt:
				kernel.LtFloat64(dst, ls, rs)
			case OpLe:
				kernel.LeFloat64(dst, ls, rs)
			case OpGt:
				kernel.GtFloat64(dst, ls, rs)
			default:
				kernel.GeFloat64(dst, ls, rs)
			}
		case vector.TypeString:
			ls, rs := lv.Strings(), rv.Strings()
			switch op {
			case OpEq:
				kernel.EqString(dst, ls, rs)
			case OpNe:
				kernel.NeString(dst, ls, rs)
			case OpLt:
				kernel.LtString(dst, ls, rs)
			case OpLe:
				kernel.LeString(dst, ls, rs)
			case OpGt:
				kernel.GtString(dst, ls, rs)
			default:
				kernel.GeString(dst, ls, rs)
			}
		case vector.TypeBool:
			ls, rs := lv.Bools(), rv.Bools()
			for i := 0; i < n; i++ {
				dst[i] = op.matches(cmp3Bool(ls[i], rs[i]))
			}
		}
		if mergeNulls2(reg, lv, rv, n) {
			kernel.ZeroNullsBool(dst, reg.NullWords())
		}
		return reg, nil
	}
}

// compareScalar evaluates vec ∘ const; a scalar on the left arrives here
// with the operator already flipped.
func compareScalar(op CmpOp, vf evalFn, s vector.Value) evalFn {
	reg := vector.New(vector.TypeBool, 0)
	return func(c *vector.Chunk) (*vector.Vector, error) {
		av, err := vf(c)
		if err != nil {
			return nil, err
		}
		n := av.Len()
		dst := reg.ResizeBool(n)
		switch av.Type() {
		case vector.TypeInt64, vector.TypeDate:
			vs := av.Int64s()
			x := s.I
			switch op {
			case OpEq:
				kernel.EqInt64Scalar(dst, vs, x)
			case OpNe:
				kernel.NeInt64Scalar(dst, vs, x)
			case OpLt:
				kernel.LtInt64Scalar(dst, vs, x)
			case OpLe:
				kernel.LeInt64Scalar(dst, vs, x)
			case OpGt:
				kernel.GtInt64Scalar(dst, vs, x)
			default:
				kernel.GeInt64Scalar(dst, vs, x)
			}
		case vector.TypeFloat64:
			vs := av.Float64s()
			x := s.F
			switch op {
			case OpEq:
				kernel.EqFloat64Scalar(dst, vs, x)
			case OpNe:
				kernel.NeFloat64Scalar(dst, vs, x)
			case OpLt:
				kernel.LtFloat64Scalar(dst, vs, x)
			case OpLe:
				kernel.LeFloat64Scalar(dst, vs, x)
			case OpGt:
				kernel.GtFloat64Scalar(dst, vs, x)
			default:
				kernel.GeFloat64Scalar(dst, vs, x)
			}
		case vector.TypeString:
			vs := av.Strings()
			x := s.S
			switch op {
			case OpEq:
				kernel.EqStringScalar(dst, vs, x)
			case OpNe:
				kernel.NeStringScalar(dst, vs, x)
			case OpLt:
				kernel.LtStringScalar(dst, vs, x)
			case OpLe:
				kernel.LeStringScalar(dst, vs, x)
			case OpGt:
				kernel.GtStringScalar(dst, vs, x)
			default:
				kernel.GeStringScalar(dst, vs, x)
			}
		}
		if copyNulls(reg, av, n) {
			kernel.ZeroNullsBool(dst, reg.NullWords())
		}
		return reg, nil
	}
}

func buildConnective(args []Expr, isAnd bool) evalFn {
	fns := make([]evalFn, len(args))
	for i, a := range args {
		fns[i] = buildNode(a)
	}
	reg := vector.New(vector.TypeBool, 0)
	argVecs := make([]*vector.Vector, len(args))
	var vals, nulls []bool // three-valued fold scratch, reused across chunks
	return func(c *vector.Chunk) (*vector.Vector, error) {
		n := c.Len()
		fast := true
		for i, f := range fns {
			av, err := f(c)
			if err != nil {
				return nil, err
			}
			argVecs[i] = av
			if av.HasNulls() {
				fast = false
			}
		}
		dst := reg.ResizeBool(n)
		if fast {
			// Two-valued fold: AND = all true, OR = any true.
			copy(dst, argVecs[0].Bools())
			for _, av := range argVecs[1:] {
				if isAnd {
					kernel.AndBool(dst, dst, av.Bools())
				} else {
					kernel.OrBool(dst, dst, av.Bools())
				}
			}
			return reg, nil
		}
		// Three-valued fold: per row true/false/null, folded across arguments.
		if cap(vals) < n {
			vals = make([]bool, n)
			nulls = make([]bool, n)
		}
		vals, nulls = vals[:n], nulls[:n]
		for i := range vals {
			vals[i] = isAnd // identity element: AND starts true, OR starts false
			nulls[i] = false
		}
		for _, av := range argVecs {
			bs := av.Bools()
			for i := 0; i < n; i++ {
				argNull := av.IsNull(i)
				argVal := !argNull && bs[i]
				if isAnd {
					switch {
					case !nulls[i] && !vals[i]:
						// already false; stays false
					case argNull:
						nulls[i] = true
					case !argVal:
						vals[i], nulls[i] = false, false
					}
				} else {
					switch {
					case !nulls[i] && vals[i]:
						// already true; stays true
					case argNull:
						nulls[i] = true
					case argVal:
						vals[i], nulls[i] = true, false
					}
				}
			}
		}
		var w []uint64
		for i := 0; i < n; i++ {
			if nulls[i] {
				if w == nil {
					w = reg.EnsureNullWords(n)
				}
				kernel.SetNull(w, i)
				dst[i] = false
			} else {
				dst[i] = vals[i]
			}
		}
		return reg, nil
	}
}

func buildNot(x *NotExpr) evalFn {
	inf := buildNode(x.In)
	reg := vector.New(vector.TypeBool, 0)
	return func(c *vector.Chunk) (*vector.Vector, error) {
		av, err := inf(c)
		if err != nil {
			return nil, err
		}
		n := av.Len()
		dst := reg.ResizeBool(n)
		kernel.NotBool(dst, av.Bools())
		if copyNulls(reg, av, n) {
			kernel.ZeroNullsBool(dst, reg.NullWords())
		}
		return reg, nil
	}
}

func buildIsNull(x *IsNullExpr) evalFn {
	inf := buildNode(x.In)
	reg := vector.New(vector.TypeBool, 0)
	negate := x.Negate
	return func(c *vector.Chunk) (*vector.Vector, error) {
		av, err := inf(c)
		if err != nil {
			return nil, err
		}
		n := av.Len()
		dst := reg.ResizeBool(n)
		w := av.NullWords()
		if len(w) == 0 {
			kernel.FillBool(dst, negate)
			return reg, nil
		}
		for i := 0; i < n; i++ {
			dst[i] = kernel.NullAt(w, i) != negate
		}
		return reg, nil
	}
}

// buildIn runs a typed membership kernel over a candidate list converted
// once into the comparison domain (inDomain), NULL candidates dropped: an
// input that promotes to DOUBLE is cast first, as Compare casts.
func buildIn(x *InExpr) evalFn {
	dom, _ := inDomain(x) // vetted by check
	in := x.In
	if dom == vector.TypeFloat64 {
		in = ToFloat(in)
	}
	inf := buildNode(in)
	var (
		ints   []int64
		floats []float64
		strs   []string
		bools  []bool
	)
	for _, c := range x.List {
		if c.Null {
			continue
		}
		c = inCandidate(c, dom)
		switch dom {
		case vector.TypeInt64:
			ints = append(ints, c.I)
		case vector.TypeFloat64:
			floats = append(floats, c.F)
		case vector.TypeString:
			strs = append(strs, c.S)
		case vector.TypeBool:
			bools = append(bools, c.B)
		}
	}
	reg := vector.New(vector.TypeBool, 0)
	negate := x.Negate
	return func(c *vector.Chunk) (*vector.Vector, error) {
		av, err := inf(c)
		if err != nil {
			return nil, err
		}
		n := av.Len()
		dst := reg.ResizeBool(n)
		switch dom {
		case vector.TypeInt64:
			kernel.InInt64(dst, av.Int64s(), ints)
		case vector.TypeFloat64:
			kernel.InFloat64(dst, av.Float64s(), floats)
		case vector.TypeString:
			kernel.InString(dst, av.Strings(), strs)
		case vector.TypeBool:
			kernel.InBool(dst, av.Bools(), bools)
		}
		if negate {
			kernel.NotBool(dst, dst)
		}
		if copyNulls(reg, av, n) {
			kernel.ZeroNullsBool(dst, reg.NullWords())
		}
		return reg, nil
	}
}

// buildLike matches every row with the pattern's compiled form (likeMatcher).
func buildLike(x *LikeExpr) evalFn {
	inf := buildNode(x.In)
	reg := vector.New(vector.TypeBool, 0)
	m := compileLike(x.Pattern)
	negate := x.Negate
	return func(c *vector.Chunk) (*vector.Vector, error) {
		av, err := inf(c)
		if err != nil {
			return nil, err
		}
		n := av.Len()
		dst := reg.ResizeBool(n)
		m.matchAll(dst, av.Strings(), negate)
		if copyNulls(reg, av, n) {
			kernel.ZeroNullsBool(dst, reg.NullWords())
		}
		return reg, nil
	}
}

func buildExtract(x *ExtractExpr) evalFn {
	inf := buildNode(x.In)
	reg := vector.New(vector.TypeInt64, 0)
	field := x.Field
	return func(c *vector.Chunk) (*vector.Vector, error) {
		av, err := inf(c)
		if err != nil {
			return nil, err
		}
		n := av.Len()
		dst := reg.ResizeInt64(n)
		ds := av.Int64s()
		if field == FieldYear {
			for i := range dst {
				dst[i] = int64(vector.DateYear(ds[i]))
			}
		} else {
			for i := range dst {
				dst[i] = int64(vector.DateMonth(ds[i]))
			}
		}
		if copyNulls(reg, av, n) {
			kernel.ZeroNullsInt64(dst, reg.NullWords())
		}
		return reg, nil
	}
}

func buildSubstr(x *SubstrExpr) evalFn {
	inf := buildNode(x.In)
	reg := vector.New(vector.TypeString, 0)
	start, length := x.Start, x.Length
	return func(c *vector.Chunk) (*vector.Vector, error) {
		av, err := inf(c)
		if err != nil {
			return nil, err
		}
		n := av.Len()
		dst := reg.ResizeString(n)
		ss := av.Strings()
		for i := range dst {
			s := ss[i]
			lo := start - 1
			if lo < 0 {
				lo = 0
			}
			if lo > len(s) {
				lo = len(s)
			}
			hi := lo + length
			if hi > len(s) {
				hi = len(s)
			}
			dst[i] = s[lo:hi]
		}
		if copyNulls(reg, av, n) {
			kernel.ZeroNullsString(dst, reg.NullWords())
		}
		return reg, nil
	}
}

func buildCase(x *CaseExpr) evalFn {
	condFns := make([]evalFn, len(x.Whens))
	for i, w := range x.Whens {
		condFns[i] = buildNode(w)
	}
	thenFns := make([]evalFn, len(x.Thens))
	for i, t := range x.Thens {
		thenFns[i] = buildNode(t)
	}
	var elseFn evalFn
	if x.Else != nil {
		elseFn = buildNode(x.Else)
	}
	reg := vector.New(x.typ, 0)
	conds := make([]*vector.Vector, len(condFns))
	thens := make([]*vector.Vector, len(thenFns))
	typ := x.typ
	return func(c *vector.Chunk) (*vector.Vector, error) {
		n := c.Len()
		for i, f := range condFns {
			v, err := f(c)
			if err != nil {
				return nil, err
			}
			conds[i] = v
		}
		for i, f := range thenFns {
			v, err := f(c)
			if err != nil {
				return nil, err
			}
			thens[i] = v
		}
		var elseV *vector.Vector
		if elseFn != nil {
			v, err := elseFn(c)
			if err != nil {
				return nil, err
			}
			elseV = v
		}
		// pick resolves the source vector for row i (nil means NULL).
		pick := func(i int) *vector.Vector {
			for bi, cond := range conds {
				if !cond.IsNull(i) && cond.Bools()[i] {
					return thens[bi]
				}
			}
			return elseV
		}
		var w []uint64
		setNull := func(i int) {
			if w == nil {
				w = reg.EnsureNullWords(n)
			}
			kernel.SetNull(w, i)
		}
		switch typ {
		case vector.TypeInt64, vector.TypeDate:
			dst := reg.ResizeInt64(n)
			for i := 0; i < n; i++ {
				if src := pick(i); src != nil && !src.IsNull(i) {
					dst[i] = src.Int64s()[i]
				} else {
					dst[i] = 0
					setNull(i)
				}
			}
		case vector.TypeFloat64:
			dst := reg.ResizeFloat64(n)
			for i := 0; i < n; i++ {
				if src := pick(i); src != nil && !src.IsNull(i) {
					dst[i] = src.Float64s()[i]
				} else {
					dst[i] = 0
					setNull(i)
				}
			}
		case vector.TypeString:
			dst := reg.ResizeString(n)
			for i := 0; i < n; i++ {
				if src := pick(i); src != nil && !src.IsNull(i) {
					dst[i] = src.Strings()[i]
				} else {
					dst[i] = ""
					setNull(i)
				}
			}
		case vector.TypeBool:
			dst := reg.ResizeBool(n)
			for i := 0; i < n; i++ {
				if src := pick(i); src != nil && !src.IsNull(i) {
					dst[i] = src.Bools()[i]
				} else {
					dst[i] = false
					setNull(i)
				}
			}
		}
		return reg, nil
	}
}
