package expr

import (
	"fmt"

	"github.com/riveterdb/riveter/internal/vector"
)

// EvalScalar evaluates e over one row of boxed values. It is the oracle the
// tests hold Program to: one switch over the node types, no chunks, vectors,
// registers or kernels, sharing with the compiled path only LikeMatch and
// the calendar helpers. Every operand is evaluated (no short-circuit), so it
// fails exactly when a program over the same row does: on a column that is
// out of range or not of its bound type, and on an ill-typed node.
func EvalScalar(e Expr, types []vector.Type, row []vector.Value) (vector.Value, error) {
	eval := func(in Expr, format string, want vector.Type) (vector.Value, error) {
		if err := operandErr(format, in, want); err != nil {
			return vector.Value{}, err
		}
		return EvalScalar(in, types, row)
	}
	switch x := e.(type) {
	case *Column:
		if x.Index < 0 || x.Index >= len(row) {
			return vector.Value{}, fmt.Errorf("column index %d out of range (%d cols)", x.Index, len(row))
		}
		if types[x.Index] != x.Typ {
			return vector.Value{}, fmt.Errorf("column %d: bound type %v but chunk has %v", x.Index, x.Typ, types[x.Index])
		}
		return row[x.Index], nil
	case *Const:
		if !x.Val.Type.Valid() {
			return vector.Value{}, fmt.Errorf("literal of type %v", x.Val.Type)
		}
		return x.Val, nil
	case *Cast:
		v, err := EvalScalar(x.In, types, row)
		switch {
		case err != nil || v.Type == x.To:
			return v, err
		case x.To == vector.TypeFloat64 && intRepr(v.Type):
			return nullOr(v.Null, vector.NewFloat64(float64(v.I))), nil
		case x.To == vector.TypeInt64 && v.Type == vector.TypeFloat64:
			return nullOr(v.Null, vector.NewInt64(int64(v.F))), nil
		}
		return vector.Value{}, fmt.Errorf("unsupported cast %v -> %v", v.Type, x.To)
	case *Arith:
		l, r, err := evalPair(x.L, x.R, types, row)
		if err != nil {
			return vector.Value{}, err
		}
		out := vector.Value{Type: x.typ}
		switch {
		case x.typ == vector.TypeFloat64 && l.Type == x.typ && r.Type == x.typ:
			switch x.Op {
			case OpAdd:
				out.F = l.F + r.F
			case OpSub:
				out.F = l.F - r.F
			case OpMul:
				out.F = l.F * r.F
			default:
				out.F, out.Null = l.F/r.F, r.F == 0 // division by zero is NULL
			}
		case intRepr(x.typ) && intRepr(l.Type) && intRepr(r.Type) && x.Op != OpDiv:
			switch x.Op {
			case OpAdd:
				out.I = l.I + r.I
			case OpSub:
				out.I = l.I - r.I
			default:
				out.I = l.I * r.I
			}
		default:
			return vector.Value{}, fmt.Errorf("arith %v yielding %v over %v and %v", x.Op, x.typ, l.Type, r.Type)
		}
		return nullOr(l.Null || r.Null || out.Null, out), nil
	case *Compare:
		l, r, err := evalPair(x.L, x.R, types, row)
		if err != nil {
			return vector.Value{}, err
		}
		if l.Type != r.Type && !(intRepr(l.Type) && intRepr(r.Type)) {
			return vector.Value{}, fmt.Errorf("compare type mismatch: %v vs %v", l.Type, r.Type)
		}
		return nullOr(l.Null || r.Null, vector.NewBool(x.Op.matches(l.Compare(r)))), nil
	case *AndExpr:
		return foldConnective(x.Args, true, eval)
	case *OrExpr:
		return foldConnective(x.Args, false, eval)
	case *NotExpr:
		v, err := eval(x.In, notOver, vector.TypeBool)
		return nullOr(v.Null, vector.NewBool(!v.B)), err
	case *IsNullExpr:
		v, err := EvalScalar(x.In, types, row)
		return vector.NewBool(v.Null != x.Negate), err
	case *InExpr:
		dom, err := inDomain(x)
		if err != nil {
			return vector.Value{}, err
		}
		v, err := EvalScalar(x.In, types, row)
		found := false
		for _, cand := range x.List {
			found = found || (!cand.Null && !v.Null && inCandidate(cand, dom).Equal(inCandidate(v, dom)))
		}
		return nullOr(v.Null, vector.NewBool(found != x.Negate)), err
	case *LikeExpr:
		v, err := eval(x.In, likeOver, vector.TypeString)
		return nullOr(v.Null, vector.NewBool(LikeMatch(v.S, x.Pattern) != x.Negate)), err
	case *ExtractExpr:
		v, err := eval(x.In, extractOver, vector.TypeDate)
		field := vector.DateYear
		if x.Field == FieldMonth {
			field = vector.DateMonth
		}
		return nullOr(v.Null, vector.NewInt64(int64(field(v.I)))), err
	case *SubstrExpr:
		v, err := eval(x.In, substringOver, vector.TypeString)
		lo := min(max(x.Start-1, 0), len(v.S))
		hi := min(lo+x.Length, len(v.S))
		return nullOr(v.Null, vector.NewString(v.S[lo:hi])), err
	case *CaseExpr:
		if len(x.Whens) == 0 || len(x.Whens) != len(x.Thens) || !x.typ.Valid() {
			return vector.Value{}, fmt.Errorf("malformed CASE of type %v: %d conditions, %d branches", x.typ, len(x.Whens), len(x.Thens))
		}
		out, taken := vector.NewNull(x.typ), false
		for i, w := range x.Whens {
			cond, err := eval(w, caseCondition, vector.TypeBool)
			if err != nil {
				return vector.Value{}, err
			}
			then, err := eval(x.Thens[i], caseBranch, x.typ)
			if err != nil {
				return vector.Value{}, err
			}
			if !taken && !cond.Null && cond.B {
				out, taken = then, true
			}
		}
		if x.Else != nil {
			els, err := eval(x.Else, caseBranch, x.typ)
			if err != nil {
				return vector.Value{}, err
			}
			if !taken {
				out = els
			}
		}
		return out, nil
	default:
		return vector.Value{}, fmt.Errorf("no program for node %T (%s)", e, e)
	}
}

// nullOr returns v, or the NULL of v's type when null is set.
func nullOr(null bool, v vector.Value) vector.Value {
	if null {
		return vector.NewNull(v.Type)
	}
	return v
}

func evalPair(l, r Expr, types []vector.Type, row []vector.Value) (lv, rv vector.Value, err error) {
	if lv, err = EvalScalar(l, types, row); err == nil {
		rv, err = EvalScalar(r, types, row)
	}
	return lv, rv, err
}

// foldConnective folds SQL's three-valued AND (isAnd) or OR: a dominating
// value (false for AND, true for OR) wins over NULL, NULL over the identity.
func foldConnective(args []Expr, isAnd bool, eval func(Expr, string, vector.Type) (vector.Value, error)) (vector.Value, error) {
	dominated, null := false, false
	for _, a := range args {
		v, err := eval(a, connectiveOver, vector.TypeBool)
		if err != nil {
			return vector.Value{}, err
		}
		switch {
		case v.Null:
			null = true
		case v.B != isAnd:
			dominated = true
		}
	}
	return nullOr(null && !dominated, vector.NewBool(isAnd != dominated)), nil
}
