package vector

import (
	"bytes"
	"testing"
)

// viewSource returns a 200-row vector of type t with a NULL every seventh
// row.
func viewSource(t Type) *Vector {
	v := New(t, 0)
	for i := 0; i < 200; i++ {
		if i%7 == 3 {
			v.AppendNull()
			continue
		}
		switch t {
		case TypeInt64, TypeDate:
			v.AppendInt64(int64(i))
		case TypeFloat64:
			v.AppendFloat64(float64(i) / 2)
		case TypeString:
			v.AppendString(string(rune('a' + i%26)))
		case TypeBool:
			v.AppendBool(i%2 == 0)
		}
	}
	return v
}

func encoded(t *testing.T, v *Vector) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Vector(v)
	if err := enc.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// junk returns a non-NULL value of type t unlike any of viewSource's.
func junk(t Type) Value {
	switch t {
	case TypeInt64, TypeDate:
		return Value{Type: t, I: -99}
	case TypeFloat64:
		return NewFloat64(-99)
	case TypeString:
		return NewString("junk")
	default:
		return NewBool(true)
	}
}

// resizeAndFill overwrites every row through the Resize method of v's type.
func resizeAndFill(v *Vector, n int) {
	switch v.Type() {
	case TypeInt64, TypeDate:
		for i, d := 0, v.ResizeInt64(n); i < n; i++ {
			d[i] = -1
		}
	case TypeFloat64:
		for i, d := 0, v.ResizeFloat64(n); i < n; i++ {
			d[i] = -1
		}
	case TypeString:
		for i, d := 0, v.ResizeString(n); i < n; i++ {
			d[i] = "x"
		}
	case TypeBool:
		for i, d := 0, v.ResizeBool(n); i < n; i++ {
			d[i] = !d[i]
		}
	}
}

// TestViewMutatorsLeaveSourceUnchanged applies every mutator to a view and
// writes through what it hands back: the source's bytes never change, and a
// mutator that keeps rows (copy-on-write) keeps the ones it did not touch.
func TestViewMutatorsLeaveSourceUnchanged(t *testing.T) {
	const lo, hi = 64, 192
	mutators := []struct {
		name string
		keep bool // rows other than the first and last survive
		do   func(v *Vector, typ Type)
	}{
		{"Reset", false, func(v *Vector, typ Type) {
			v.Reset()
			v.AppendValue(junk(typ))
			v.AppendNull()
		}},
		{"Resize", false, func(v *Vector, typ Type) { resizeAndFill(v, v.Len()) }},
		{"ResizeLonger", false, func(v *Vector, typ Type) { resizeAndFill(v, 300) }},
		{"EnsureNullWordsLonger", true, func(v *Vector, typ Type) { v.EnsureNullWords(v.Len() + 64)[0] |= 1 }},
		{"SetNull", true, func(v *Vector, typ Type) {
			v.SetNull(0)
			v.SetNull(v.Len() - 1)
		}},
		{"EnsureNullWords", true, func(v *Vector, typ Type) {
			w := v.EnsureNullWords(v.Len())
			w[0] |= 1
			w[len(w)-1] |= 1 << 63 // the last row: the view is 128 rows
		}},
		{"AppendNull", true, func(v *Vector, typ Type) { v.AppendNull() }},
		{"AppendValue", true, func(v *Vector, typ Type) {
			v.AppendValue(junk(typ))
			v.SetNull(0)
		}},
		{"AppendFrom", true, func(v *Vector, typ Type) { v.AppendFrom(viewSource(typ), 3) }},
		{"AppendRange", true, func(v *Vector, typ Type) { v.AppendRange(viewSource(typ), 0, 10) }},
	}
	for _, typ := range []Type{TypeInt64, TypeFloat64, TypeString, TypeBool, TypeDate} {
		for _, m := range mutators {
			src := viewSource(typ)
			before := encoded(t, src)
			v := New(typ, 0)
			v.View(src, lo, hi)
			for i := 0; i < v.Len(); i++ {
				if !v.Value(i).Equal(src.Value(lo + i)) {
					t.Fatalf("%v %s: view row %d = %v, source row %d = %v", typ, m.name, i, v.Value(i), lo+i, src.Value(lo+i))
				}
			}
			m.do(v, typ)
			if !bytes.Equal(encoded(t, src), before) {
				t.Fatalf("%v %s through a view changed the source", typ, m.name)
			}
			if !m.keep {
				continue
			}
			for i := 1; i < hi-lo-1; i++ {
				if !v.Value(i).Equal(src.Value(lo + i)) {
					t.Fatalf("%v %s: row %d = %v after the copy, source row %d = %v", typ, m.name, i, v.Value(i), lo+i, src.Value(lo+i))
				}
			}
		}
	}
}

// TestChunkViewResetThenAppend: a chunk that viewed another and is reused
// as an ordinary chunk writes only storage of its own.
func TestChunkViewResetThenAppend(t *testing.T) {
	types := []Type{TypeInt64, TypeString}
	src := NewChunk(types)
	for i := 0; i < 100; i++ {
		src.AppendRowValues(NewInt64(int64(i)), NewString("s"))
	}
	before := encoded(t, src.Col(0))
	dst := NewViewChunk(types)
	dst.View(src)
	if dst.Len() != 100 || dst.Col(0).Int64s()[99] != 99 {
		t.Fatalf("view has %d rows", dst.Len())
	}
	dst.Reset()
	for i := 0; i < 100; i++ {
		dst.AppendRowValues(NewInt64(-1), NewNull(TypeString))
	}
	if !bytes.Equal(encoded(t, src.Col(0)), before) || src.Col(1).HasNulls() {
		t.Fatal("appending after Reset wrote into the viewed chunk")
	}
}

func TestViewRequiresWordAlignment(t *testing.T) {
	src := viewSource(TypeInt64)
	for _, r := range [][2]int{{1, 64}, {64, 100}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("View(%d, %d) of %d rows did not panic", r[0], r[1], src.Len())
				}
			}()
			New(TypeInt64, 0).View(src, r[0], r[1])
		}()
	}
	New(TypeInt64, 0).View(src, 128, src.Len()) // a ragged end is fine
}
