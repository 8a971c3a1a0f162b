package vector

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func roundTripVector(t *testing.T, v *Vector) *Vector {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Vector(v)
	if enc.Err() != nil {
		t.Fatalf("encode: %v", enc.Err())
	}
	dec := NewDecoder(bytes.NewReader(buf.Bytes()))
	got := dec.Vector()
	if dec.Err() != nil {
		t.Fatalf("decode: %v", dec.Err())
	}
	return got
}

func vectorsEqual(a, b *Vector) bool {
	if a.Type() != b.Type() || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		av, bv := a.Value(i), b.Value(i)
		if av.Null != bv.Null {
			return false
		}
		if !av.Null && !av.Equal(bv) {
			// NaN compares unequal to itself via Compare; handle explicitly.
			if av.Type == TypeFloat64 && math.IsNaN(av.F) && math.IsNaN(bv.F) {
				continue
			}
			return false
		}
	}
	return true
}

func TestCodecVectorRoundTripAllTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	build := func(typ Type, n int) *Vector {
		v := New(typ, n)
		for i := 0; i < n; i++ {
			if rng.Intn(10) == 0 {
				v.AppendNull()
				continue
			}
			switch typ {
			case TypeInt64:
				v.AppendInt64(rng.Int63() - rng.Int63())
			case TypeDate:
				v.AppendInt64(int64(rng.Intn(20000)))
			case TypeFloat64:
				v.AppendFloat64(rng.NormFloat64() * 1e6)
			case TypeString:
				v.AppendString(randWord(rng))
			case TypeBool:
				v.AppendBool(rng.Intn(2) == 0)
			}
		}
		return v
	}
	for _, typ := range []Type{TypeInt64, TypeDate, TypeFloat64, TypeString, TypeBool} {
		for _, n := range []int{0, 1, 63, 64, 65, 500} {
			v := build(typ, n)
			got := roundTripVector(t, v)
			if !vectorsEqual(v, got) {
				t.Errorf("round trip mismatch type=%v n=%d", typ, n)
			}
		}
	}
}

func randWord(rng *rand.Rand) string {
	n := rng.Intn(20)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func TestCodecChunkRoundTrip(t *testing.T) {
	c := NewChunk([]Type{TypeInt64, TypeString, TypeFloat64, TypeBool, TypeDate})
	for i := 0; i < 333; i++ {
		c.AppendRowValues(
			NewInt64(int64(i*i)),
			NewString("row"),
			NewFloat64(float64(i)/3),
			NewBool(i%2 == 0),
			NewDate(int64(9000+i)),
		)
	}
	c.Col(1).SetNull(5)

	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Chunk(c)
	if enc.Err() != nil {
		t.Fatal(enc.Err())
	}
	dec := NewDecoder(bytes.NewReader(buf.Bytes()))
	got := dec.Chunk()
	if dec.Err() != nil {
		t.Fatal(dec.Err())
	}
	if got.Len() != c.Len() || got.NumCols() != c.NumCols() {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", got.Len(), got.NumCols(), c.Len(), c.NumCols())
	}
	for j := 0; j < c.NumCols(); j++ {
		if !vectorsEqual(c.Col(j), got.Col(j)) {
			t.Errorf("column %d mismatch", j)
		}
	}
}

func TestCodecPrimitivesRoundTrip(t *testing.T) {
	f := func(u uint64, i int64, fl float64, s string, b bool) bool {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		enc.Uvarint(u)
		enc.Varint(i)
		enc.Float64(fl)
		enc.String(s)
		enc.Bool(b)
		if enc.Err() != nil {
			return false
		}
		dec := NewDecoder(bytes.NewReader(buf.Bytes()))
		gu := dec.Uvarint()
		gi := dec.Varint()
		gf := dec.Float64()
		gs := dec.String()
		gb := dec.Bool()
		if dec.Err() != nil {
			return false
		}
		okF := gf == fl || (math.IsNaN(gf) && math.IsNaN(fl))
		return gu == u && gi == i && okF && gs == s && gb == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodecValueRoundTrip(t *testing.T) {
	vals := []Value{
		NewInt64(-1234567),
		NewFloat64(3.14159),
		NewString("suspension"),
		NewBool(true),
		NewDate(12345),
		NewNull(TypeString),
		NewNull(TypeFloat64),
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, v := range vals {
		enc.Value(v)
	}
	if enc.Err() != nil {
		t.Fatal(enc.Err())
	}
	dec := NewDecoder(bytes.NewReader(buf.Bytes()))
	for i, want := range vals {
		got := dec.Value()
		if got.Type != want.Type || got.Null != want.Null || (!want.Null && !got.Equal(want)) {
			t.Errorf("value %d: got %v, want %v", i, got, want)
		}
	}
	if dec.Err() != nil {
		t.Fatal(dec.Err())
	}
}

func TestDecoderRejectsGarbage(t *testing.T) {
	dec := NewDecoder(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}))
	if v := dec.Vector(); v != nil && dec.Err() == nil {
		t.Error("decoding garbage must fail or return nil")
	}

	dec2 := NewDecoder(bytes.NewReader(nil))
	dec2.Uvarint()
	if dec2.Err() == nil {
		t.Error("decoding empty input must set an error")
	}
}

// TestEncoderAllocatesNothingPerValue: into a writer with a WriteString
// method, encoding strings and bools allocates nothing, however many
// values there are. Checkpoints and their size estimates encode every
// VARCHAR and BOOLEAN row of a state this way.
func TestEncoderAllocatesNothingPerValue(t *testing.T) {
	strs, bools := New(TypeString, 2048), New(TypeBool, 2048)
	for i := 0; i < 2048; i++ {
		strs.AppendString(fmt.Sprintf("value %d", i))
		bools.AppendBool(i%3 == 0)
	}
	enc := NewEncoder(io.Discard)
	encode := func() {
		enc.Vector(strs)
		enc.Vector(bools)
		enc.String("x")
		enc.Bool(true)
		enc.Value(NewString("boxed"))
	}
	if n := testing.AllocsPerRun(10, encode); n != 0 {
		t.Errorf("encoding 4,099 values allocates %v times, want 0", n)
	}
	if enc.Err() != nil {
		t.Fatal(enc.Err())
	}
}
