package vector

import (
	"fmt"
	"strconv"
)

// Value is a boxed scalar of any supported type. It is used at planning time
// (constants), in row-oriented code paths (group keys, sort rows), and in
// tests. The zero Value is NULL of invalid type.
type Value struct {
	Type Type
	Null bool
	I    int64
	F    float64
	S    string
	B    bool
}

// NewInt64 returns a BIGINT value.
func NewInt64(v int64) Value { return Value{Type: TypeInt64, I: v} }

// NewFloat64 returns a DOUBLE value.
func NewFloat64(v float64) Value { return Value{Type: TypeFloat64, F: v} }

// NewString returns a VARCHAR value.
func NewString(v string) Value { return Value{Type: TypeString, S: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value { return Value{Type: TypeBool, B: v} }

// NewDate returns a DATE value from days since the Unix epoch.
func NewDate(days int64) Value { return Value{Type: TypeDate, I: days} }

// NewNull returns a NULL of the given type.
func NewNull(t Type) Value { return Value{Type: t, Null: true} }

// String renders the value for debugging and result printing.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Type {
	case TypeBool:
		return strconv.FormatBool(v.B)
	case TypeInt64:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat64:
		return strconv.FormatFloat(v.F, 'f', -1, 64)
	case TypeString:
		return v.S
	case TypeDate:
		return FormatDate(v.I)
	default:
		return fmt.Sprintf("Value(%v)", v.Type)
	}
}

// Compare orders two values of the same type: -1 if v < o, 0 if equal,
// +1 if v > o. NULL sorts before every non-NULL value.
func (v Value) Compare(o Value) int {
	if v.Null || o.Null {
		switch {
		case v.Null && o.Null:
			return 0
		case v.Null:
			return -1
		default:
			return 1
		}
	}
	switch v.Type {
	case TypeBool:
		switch {
		case v.B == o.B:
			return 0
		case !v.B:
			return -1
		default:
			return 1
		}
	case TypeInt64, TypeDate:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		default:
			return 0
		}
	case TypeFloat64:
		switch {
		case v.F < o.F:
			return -1
		case v.F > o.F:
			return 1
		default:
			return 0
		}
	case TypeString:
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		default:
			return 0
		}
	}
	return 0
}

// Equal reports whether two values are equal. NULLs are equal to each other
// (group-by semantics), not SQL three-valued semantics; expression evaluation
// handles SQL NULL separately.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }
