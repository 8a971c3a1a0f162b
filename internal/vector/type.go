// Package vector provides the columnar in-memory data representation used by
// the Riveter query engine: typed column vectors, fixed-capacity data chunks,
// scalar values, hashing, and a compact binary codec shared by the on-disk
// table format and the checkpoint machinery.
package vector

import "fmt"

// ChunkCapacity is the standard number of rows per DataChunk. Operators may
// produce shorter chunks but never longer ones.
const ChunkCapacity = 1 << ChunkShift

// ChunkShift is log2(ChunkCapacity): row r of a buffer packed densely into
// chunks sits in chunk r>>ChunkShift.
const ChunkShift = 11

// Type identifies the logical type of a vector or scalar value.
type Type uint8

// Supported logical types. Date is stored as days since the Unix epoch.
const (
	TypeInvalid Type = iota
	TypeBool
	TypeInt64
	TypeFloat64
	TypeString
	TypeDate
)

var typeNames = [...]string{
	TypeInvalid: "INVALID",
	TypeBool:    "BOOLEAN",
	TypeInt64:   "BIGINT",
	TypeFloat64: "DOUBLE",
	TypeString:  "VARCHAR",
	TypeDate:    "DATE",
}

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Valid reports whether t is one of the supported concrete types.
func (t Type) Valid() bool {
	return t > TypeInvalid && t <= TypeDate
}

// Numeric reports whether the type participates in arithmetic.
func (t Type) Numeric() bool {
	return t == TypeInt64 || t == TypeFloat64 || t == TypeDate
}

// FixedWidth returns the in-memory width in bytes of one value of the type,
// or 0 for variable-width types (strings).
func (t Type) FixedWidth() int {
	switch t {
	case TypeBool:
		return 1
	case TypeInt64, TypeFloat64, TypeDate:
		return 8
	case TypeString:
		return 0
	default:
		return 0
	}
}
