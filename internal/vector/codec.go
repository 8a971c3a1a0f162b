package vector

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Encoder writes the compact binary representation shared by the on-disk
// table format and checkpoint files. All integers are varint-encoded; floats
// are fixed 8-byte little-endian. Encoding allocates nothing per value when
// the writer has a WriteString method (io.StringWriter); without one, each
// string is copied to a byte slice first.
type Encoder struct {
	w   io.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Err returns the first write error encountered.
func (e *Encoder) Err() error { return e.err }

func (e *Encoder) write(p []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(p)
}

// Uvarint writes an unsigned varint.
func (e *Encoder) Uvarint(x uint64) {
	n := binary.PutUvarint(e.buf[:], x)
	e.write(e.buf[:n])
}

// Varint writes a signed (zig-zag) varint.
func (e *Encoder) Varint(x int64) {
	n := binary.PutVarint(e.buf[:], x)
	e.write(e.buf[:n])
}

// Float64 writes a fixed-width float64.
func (e *Encoder) Float64(x float64) {
	binary.LittleEndian.PutUint64(e.buf[:8], math.Float64bits(x))
	e.write(e.buf[:8])
}

// Bool writes a single byte 0/1.
func (e *Encoder) Bool(x bool) {
	e.buf[0] = 0
	if x {
		e.buf[0] = 1
	}
	e.write(e.buf[:1])
}

// String writes a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

// Vector writes a full vector: type, length, null bitmap, then data.
func (e *Encoder) Vector(v *Vector) {
	e.Uvarint(uint64(v.typ))
	e.Uvarint(uint64(v.length))
	nullWords := (v.length + 63) / 64
	for i := 0; i < nullWords; i++ {
		var w uint64
		if i < len(v.nulls) {
			w = v.nulls[i]
		}
		e.Uvarint(w)
	}
	switch v.typ {
	case TypeInt64, TypeDate:
		var prev int64
		for _, x := range v.ints[:v.length] {
			e.Varint(x - prev) // delta encoding: keys & dates compress well
			prev = x
		}
	case TypeFloat64:
		for _, x := range v.floats[:v.length] {
			e.Float64(x)
		}
	case TypeString:
		for _, s := range v.strs[:v.length] {
			e.String(s)
		}
	case TypeBool:
		for _, b := range v.bools[:v.length] {
			e.Bool(b)
		}
	}
}

// Chunk writes the column count followed by each column vector.
func (e *Encoder) Chunk(c *Chunk) {
	e.Uvarint(uint64(len(c.cols)))
	for _, col := range c.cols {
		e.Vector(col)
	}
}

// Value writes a boxed value (type, null flag, payload).
func (e *Encoder) Value(v Value) {
	e.Uvarint(uint64(v.Type))
	e.Bool(v.Null)
	if v.Null {
		return
	}
	switch v.Type {
	case TypeInt64, TypeDate:
		e.Varint(v.I)
	case TypeFloat64:
		e.Float64(v.F)
	case TypeString:
		e.String(v.S)
	case TypeBool:
		e.Bool(v.B)
	}
}

// Decoder reads the Encoder's format.
type Decoder struct {
	r   io.ByteReader
	rr  io.Reader
	err error
	buf []byte // scratch for fixed-width values and string bytes
}

// NewDecoder returns a Decoder reading from r, which must support byte-wise
// reads (e.g. *bufio.Reader, *bytes.Reader).
func NewDecoder(r interface {
	io.Reader
	io.ByteReader
}) *Decoder {
	return &Decoder{r: r, rr: r}
}

// Err returns the first read error encountered.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of bytes left to decode when the reader
// reports it (a *bytes.Reader does), or -1. Every element of a counted run
// takes at least one byte, so a count above Remaining is corrupt: decoders
// of untrusted state check that before they size anything from it.
func (d *Decoder) Remaining() int {
	if l, ok := d.rr.(interface{ Len() int }); ok {
		return l.Len()
	}
	return -1
}

func (d *Decoder) fail(err error) {
	if d.err == nil && err != nil {
		d.err = err
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, err := binary.ReadUvarint(d.r)
	d.fail(err)
	return x
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	x, err := binary.ReadVarint(d.r)
	d.fail(err)
	return x
}

// Float64 reads a fixed-width float64.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	b := d.scratch(8)
	if _, err := io.ReadFull(d.rr, b); err != nil {
		d.fail(err)
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Bool reads a single-byte bool.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	b, err := d.r.ReadByte()
	d.fail(err)
	return b != 0
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if rem := d.Remaining(); n > 1<<31 || rem >= 0 && n > uint64(rem) {
		d.fail(fmt.Errorf("decode string: implausible length %d", n))
		return ""
	}
	b := d.scratch(int(n))
	if _, err := io.ReadFull(d.rr, b); err != nil {
		d.fail(err)
		return ""
	}
	return string(b)
}

// scratch returns the decoder's scratch buffer resized to n bytes.
func (d *Decoder) scratch(n int) []byte {
	if cap(d.buf) < n {
		d.buf = make([]byte, n)
	}
	return d.buf[:n]
}

// Vector reads a full vector.
func (d *Decoder) Vector() *Vector {
	typ := Type(d.Uvarint())
	n := int(d.Uvarint())
	if d.err != nil {
		return nil
	}
	if !typ.Valid() || n < 0 {
		d.fail(fmt.Errorf("decode vector: bad header type=%v len=%d", typ, n))
		return nil
	}
	if rem := d.Remaining(); rem >= 0 && n > rem {
		d.fail(fmt.Errorf("decode vector: %d rows in %d bytes", n, rem))
		return nil
	}
	v := New(typ, n)
	nullWords := (n + 63) / 64
	nulls := make([]uint64, 0, nullWords)
	any := false
	for i := 0; i < nullWords; i++ {
		w := d.Uvarint()
		nulls = append(nulls, w)
		if w != 0 {
			any = true
		}
	}
	if any {
		if n&63 != 0 {
			nulls[len(nulls)-1] &= 1<<(uint(n)&63) - 1 // no NULL past the last row
		}
		v.nulls = nulls
	}
	switch typ {
	case TypeInt64, TypeDate:
		var prev int64
		for i := 0; i < n; i++ {
			prev += d.Varint()
			v.ints = append(v.ints, prev)
		}
	case TypeFloat64:
		for i := 0; i < n; i++ {
			v.floats = append(v.floats, d.Float64())
		}
	case TypeString:
		for i := 0; i < n; i++ {
			v.strs = append(v.strs, d.String())
		}
	case TypeBool:
		for i := 0; i < n; i++ {
			v.bools = append(v.bools, d.Bool())
		}
	}
	v.length = n
	if d.err != nil {
		return nil
	}
	return v
}

// Chunk reads a chunk written by Encoder.Chunk.
func (d *Decoder) Chunk() *Chunk {
	nc := int(d.Uvarint())
	if d.err != nil {
		return nil
	}
	if nc < 0 || nc > 1<<16 {
		d.fail(fmt.Errorf("decode chunk: implausible column count %d", nc))
		return nil
	}
	c := &Chunk{cols: make([]*Vector, nc)}
	n := -1
	for i := 0; i < nc; i++ {
		col := d.Vector()
		if d.err != nil {
			return nil
		}
		if n == -1 {
			n = col.Len()
		} else if col.Len() != n {
			d.fail(fmt.Errorf("decode chunk: ragged columns (%d vs %d)", col.Len(), n))
			return nil
		}
		c.cols[i] = col
	}
	if n < 0 {
		n = 0
	}
	c.length = n
	return c
}

// Value reads a boxed value.
func (d *Decoder) Value() Value {
	typ := Type(d.Uvarint())
	null := d.Bool()
	if d.err != nil {
		return Value{}
	}
	v := Value{Type: typ, Null: null}
	if null {
		return v
	}
	switch typ {
	case TypeInt64, TypeDate:
		v.I = d.Varint()
	case TypeFloat64:
		v.F = d.Float64()
	case TypeString:
		v.S = d.String()
	case TypeBool:
		v.B = d.Bool()
	}
	return v
}
