package vector

import (
	"testing"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		TypeBool:    "BOOLEAN",
		TypeInt64:   "BIGINT",
		TypeFloat64: "DOUBLE",
		TypeString:  "VARCHAR",
		TypeDate:    "DATE",
		TypeInvalid: "INVALID",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
	if Type(99).String() == "" {
		t.Error("unknown type should still render")
	}
}

func TestTypePredicates(t *testing.T) {
	if !TypeInt64.Numeric() || !TypeFloat64.Numeric() || !TypeDate.Numeric() {
		t.Error("int64/float64/date must be numeric")
	}
	if TypeString.Numeric() || TypeBool.Numeric() {
		t.Error("string/bool must not be numeric")
	}
	if TypeInvalid.Valid() || Type(200).Valid() {
		t.Error("invalid types must not be Valid")
	}
	if w := TypeInt64.FixedWidth(); w != 8 {
		t.Errorf("int64 width = %d, want 8", w)
	}
	if w := TypeString.FixedWidth(); w != 0 {
		t.Errorf("string width = %d, want 0", w)
	}
	if w := TypeBool.FixedWidth(); w != 1 {
		t.Errorf("bool width = %d, want 1", w)
	}
}

func TestVectorAppendAndGet(t *testing.T) {
	v := New(TypeInt64, 4)
	v.AppendInt64(10)
	v.AppendInt64(-3)
	v.AppendNull()
	v.AppendInt64(7)
	if v.Len() != 4 {
		t.Fatalf("Len = %d, want 4", v.Len())
	}
	if v.IsNull(0) || v.IsNull(1) || !v.IsNull(2) || v.IsNull(3) {
		t.Fatal("null bitmap wrong")
	}
	if got := v.Value(1); got.I != -3 || got.Null {
		t.Errorf("Value(1) = %v", got)
	}
	if got := v.Value(2); !got.Null {
		t.Errorf("Value(2) should be NULL, got %v", got)
	}
	if !v.HasNulls() {
		t.Error("HasNulls should be true")
	}
}

func TestVectorAllTypes(t *testing.T) {
	vs := New(TypeString, 2)
	vs.AppendString("hello")
	vs.AppendValue(NewString("world"))
	if vs.Strings()[1] != "world" {
		t.Error("string append failed")
	}

	vb := New(TypeBool, 2)
	vb.AppendBool(true)
	vb.AppendValue(NewBool(false))
	if !vb.Bools()[0] || vb.Bools()[1] {
		t.Error("bool append failed")
	}

	vf := New(TypeFloat64, 2)
	vf.AppendFloat64(1.5)
	vf.AppendValue(NewFloat64(-2.25))
	if vf.Float64s()[1] != -2.25 {
		t.Error("float append failed")
	}

	vd := New(TypeDate, 1)
	vd.AppendValue(NewDate(MustParseDate("1995-06-17")))
	if got := vd.Value(0).String(); got != "1995-06-17" {
		t.Errorf("date value = %q", got)
	}
}

func TestVectorReset(t *testing.T) {
	v := New(TypeInt64, 4)
	v.AppendInt64(1)
	v.AppendNull()
	v.Reset()
	if v.Len() != 0 {
		t.Fatalf("Len after Reset = %d", v.Len())
	}
	v.AppendInt64(5)
	if v.IsNull(0) {
		t.Error("null bitmap must be cleared by Reset")
	}
}

// TestVectorGrow: Grow keeps the rows and their NULLs, and appends up to
// the reserved count write into the same backing arrays.
func TestVectorGrow(t *testing.T) {
	v := New(TypeInt64, 0)
	v.AppendInt64(7)
	v.AppendNull()
	v.Grow(200)
	ints, nulls := &v.Int64s()[:1][0], &v.NullWords()[:1][0]
	for i := 2; i < 200; i++ {
		v.AppendNull()
	}
	if &v.Int64s()[0] != ints || &v.NullWords()[0] != nulls {
		t.Error("appends within the grown capacity reallocated")
	}
	if v.Len() != 200 || v.Value(0) != NewInt64(7) || !v.IsNull(1) || !v.IsNull(199) {
		t.Errorf("grown vector holds %d rows: %v, %v, %v", v.Len(), v.Value(0), v.Value(1), v.Value(199))
	}
}

func TestVectorAppendFrom(t *testing.T) {
	src := New(TypeString, 3)
	src.AppendString("a")
	src.AppendNull()
	src.AppendString("c")
	dst := New(TypeString, 3)
	for i := 0; i < 3; i++ {
		dst.AppendFrom(src, i)
	}
	for i := 0; i < 3; i++ {
		if !dst.Value(i).Equal(src.Value(i)) {
			t.Errorf("row %d: %v != %v", i, dst.Value(i), src.Value(i))
		}
	}
}

func TestChunkBasics(t *testing.T) {
	c := NewChunk([]Type{TypeInt64, TypeString})
	c.AppendRowValues(NewInt64(1), NewString("x"))
	c.AppendRowValues(NewInt64(2), NewNull(TypeString))
	if c.Len() != 2 || c.NumCols() != 2 {
		t.Fatalf("len=%d cols=%d", c.Len(), c.NumCols())
	}
	row := c.Row(1)
	if row[0].I != 2 || !row[1].Null {
		t.Errorf("Row(1) = %v", row)
	}
	c.Reset()
	if c.Len() != 0 {
		t.Error("Reset failed")
	}
}

func TestChunkSetLenPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetLen on ragged chunk must panic")
		}
	}()
	c := NewChunk([]Type{TypeInt64, TypeInt64})
	c.Col(0).AppendInt64(1)
	c.SetLen(1)
}

func TestChunkHashGroupsEqualRows(t *testing.T) {
	c := NewChunk([]Type{TypeInt64, TypeString})
	c.AppendRowValues(NewInt64(7), NewString("k"))
	c.AppendRowValues(NewInt64(7), NewString("k"))
	c.AppendRowValues(NewInt64(8), NewString("k"))
	h := make([]uint64, c.Len())
	c.Col(0).HashInto(h)
	c.Col(1).HashInto(h)
	if h[0] != h[1] {
		t.Error("equal rows must hash equal")
	}
	if h[0] == h[2] {
		t.Error("different rows should hash differently (with overwhelming probability)")
	}
}

// TestHashIntoNullIgnoresValueSlot: a NULL row hashes as NULL whatever its
// value slot holds — a computed column may leave a real value under its
// null bit — so two NULLs, which are one group key, hash equal.
func TestHashIntoNullIgnoresValueSlot(t *testing.T) {
	for _, typ := range []Type{TypeInt64, TypeFloat64, TypeString, TypeBool} {
		v := New(typ, 3)
		v.AppendValue(Value{Type: typ, I: 7, F: 7, S: "7", B: true})
		v.AppendValue(Value{Type: typ, I: 0, F: 0, S: "", B: false})
		v.AppendValue(Value{Type: typ, I: 7, F: 7, S: "7", B: true})
		v.SetNull(0)
		v.SetNull(1)
		h := make([]uint64, 3)
		v.HashInto(h)
		if h[0] != h[1] {
			t.Errorf("%v: NULL rows over different value slots hash %x and %x", typ, h[0], h[1])
		}
		if h[0] == h[2] {
			t.Errorf("%v: a NULL hashes like the value under it", typ)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt64(1), NewInt64(2), -1},
		{NewInt64(2), NewInt64(2), 0},
		{NewInt64(3), NewInt64(2), 1},
		{NewFloat64(1.5), NewFloat64(1.6), -1},
		{NewString("abc"), NewString("abd"), -1},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewBool(true), 0},
		{NewNull(TypeInt64), NewInt64(-100), -1},
		{NewInt64(-100), NewNull(TypeInt64), 1},
		{NewNull(TypeInt64), NewNull(TypeInt64), 0},
		{NewDate(10), NewDate(11), -1},
	}
	for i, tc := range cases {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("case %d: Compare(%v,%v) = %d, want %d", i, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt64(-5), "-5"},
		{NewFloat64(2.5), "2.5"},
		{NewString("hi"), "hi"},
		{NewBool(true), "true"},
		{NewNull(TypeInt64), "NULL"},
		{NewDate(0), "1970-01-01"},
	}
	for _, tc := range cases {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String(%#v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestMemBytesGrows(t *testing.T) {
	v := New(TypeString, 0)
	before := v.MemBytes()
	for i := 0; i < 100; i++ {
		v.AppendString("some reasonably long string payload")
	}
	if v.MemBytes() <= before {
		t.Error("MemBytes must grow with appended data")
	}
}
