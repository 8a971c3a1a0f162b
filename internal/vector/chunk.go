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

// NewViewChunk returns an empty chunk whose columns reserve no storage: the
// destination of a source that points it at rows the source owns (View).
func NewViewChunk(types []Type) *Chunk {
	c := &Chunk{cols: make([]*Vector, len(types))}
	for i, t := range types {
		c.cols[i] = New(t, 0)
	}
	return c
}

// View points every column of c at the same column of src (same layout),
// all rows, without copying; see Vector.View.
func (c *Chunk) View(src *Chunk) {
	for j, col := range c.cols {
		col.View(src.cols[j], 0, src.length)
	}
	c.length = src.length
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

// ViewBytes returns the MemBytes of a chunk viewing all of c's rows (View),
// without making the view.
func (c *Chunk) ViewBytes() int64 {
	var b int64
	for _, col := range c.cols {
		b += col.viewBytes(c.length)
	}
	return b
}
