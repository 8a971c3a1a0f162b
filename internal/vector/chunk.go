package vector

import "fmt"

// Chunk is a horizontal slice of a relation: a set of equal-length column
// vectors holding up to ChunkCapacity rows. Chunks are the unit of data flow
// between physical operators.
type Chunk struct {
	cols   []*Vector
	length int
}

// NewChunk returns an empty chunk with one vector per type.
func NewChunk(types []Type) *Chunk {
	c := &Chunk{cols: make([]*Vector, len(types))}
	for i, t := range types {
		c.cols[i] = New(t, ChunkCapacity)
	}
	return c
}

// NumCols returns the number of columns.
func (c *Chunk) NumCols() int { return len(c.cols) }

// Len returns the number of rows.
func (c *Chunk) Len() int { return c.length }

// SetLen declares the row count after columns were filled directly.
// Every column must have exactly n rows.
func (c *Chunk) SetLen(n int) {
	for i, col := range c.cols {
		if col.Len() != n {
			panic(fmt.Sprintf("chunk.SetLen(%d): column %d has %d rows", n, i, col.Len()))
		}
	}
	c.length = n
}

// Col returns column i.
func (c *Chunk) Col(i int) *Vector { return c.cols[i] }

// Cols returns the backing column slice.
func (c *Chunk) Cols() []*Vector { return c.cols }

// Types returns the column types.
func (c *Chunk) Types() []Type {
	ts := make([]Type, len(c.cols))
	for i, col := range c.cols {
		ts[i] = col.Type()
	}
	return ts
}

// Reset truncates all columns to zero rows.
func (c *Chunk) Reset() {
	for _, col := range c.cols {
		col.Reset()
	}
	c.length = 0
}

// Full reports whether the chunk has reached its standard capacity.
func (c *Chunk) Full() bool { return c.length >= ChunkCapacity }

// AppendRowFrom appends row i of src into the chunk; column sets must match.
func (c *Chunk) AppendRowFrom(src *Chunk, i int) {
	for j, col := range c.cols {
		col.AppendFrom(src.cols[j], i)
	}
	c.length++
}

// AppendChunk bulk-appends every row of src (same column layout) using
// per-column range copies instead of per-row dispatch.
func (c *Chunk) AppendChunk(src *Chunk) {
	for j, col := range c.cols {
		col.AppendRange(src.cols[j], 0, src.length)
	}
	c.length += src.length
}

// AppendRowValues appends one row of boxed values.
func (c *Chunk) AppendRowValues(vals ...Value) {
	if len(vals) != len(c.cols) {
		panic(fmt.Sprintf("AppendRowValues: %d values for %d columns", len(vals), len(c.cols)))
	}
	for j, col := range c.cols {
		col.AppendValue(vals[j])
	}
	c.length++
}

// Row returns the boxed values of row i (allocates; for tests and results).
func (c *Chunk) Row(i int) []Value {
	row := make([]Value, len(c.cols))
	for j, col := range c.cols {
		row[j] = col.Value(i)
	}
	return row
}

// MemBytes estimates the resident size of the chunk.
func (c *Chunk) MemBytes() int64 {
	var b int64
	for _, col := range c.cols {
		b += col.MemBytes()
	}
	return b
}

// Clone deep-copies the chunk.
func (c *Chunk) Clone() *Chunk {
	out := NewChunk(c.Types())
	for i := 0; i < c.length; i++ {
		out.AppendRowFrom(c, i)
	}
	return out
}
