package catalog

import (
	"fmt"
	"sync/atomic"

	"github.com/riveterdb/riveter/internal/vector"
)

// Table is an append-only, column-major, in-memory relation. Each column is
// stored as a single contiguous vector, which makes row-range morsel scans
// trivial and cheap.
type Table struct {
	name   string
	schema *Schema
	cols   []*vector.Vector
	rows   int64

	stats *TableStats // lazily computed; invalidated on append
	// memBytes caches MemBytes, which reads every string of the table and
	// is asked for on every submission; 0 = not computed. Invalidated on
	// append like stats, atomic because submissions race each other.
	memBytes atomic.Int64
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema *Schema) *Table {
	t := &Table{name: name, schema: schema}
	t.cols = make([]*vector.Vector, schema.Arity())
	for i, c := range schema.Columns {
		t.cols[i] = vector.New(c.Type, 0)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows returns the current row count.
func (t *Table) NumRows() int64 { return t.rows }

// Column returns the full storage vector of column i (read-only use).
func (t *Table) Column(i int) *vector.Vector { return t.cols[i] }

// AppendChunk appends all rows of the chunk, whose column types must match
// the schema.
func (t *Table) AppendChunk(c *vector.Chunk) error {
	if c.NumCols() != t.schema.Arity() {
		return fmt.Errorf("table %s: append %d columns to %d-column schema", t.name, c.NumCols(), t.schema.Arity())
	}
	for j := range t.cols {
		want, got := t.schema.Columns[j].Type, c.Col(j).Type()
		if want != got {
			return fmt.Errorf("table %s column %s: append type %v to %v", t.name, t.schema.Columns[j].Name, got, want)
		}
	}
	for i := 0; i < c.Len(); i++ {
		for j, col := range t.cols {
			col.AppendFrom(c.Col(j), i)
		}
	}
	t.rows += int64(c.Len())
	t.stats = nil
	t.memBytes.Store(0)
	return nil
}

// AppendRow appends a single row of boxed values (slow path; loaders and
// tests).
func (t *Table) AppendRow(vals ...vector.Value) error {
	if len(vals) != t.schema.Arity() {
		return fmt.Errorf("table %s: append row of %d values to %d-column schema", t.name, len(vals), t.schema.Arity())
	}
	for j, col := range t.cols {
		col.AppendValue(vals[j])
	}
	t.rows++
	t.stats = nil
	t.memBytes.Store(0)
	return nil
}

// ScanView points dst's columns at rows [start, start+count) of the
// projected columns without copying, and returns the number of rows in view
// (possibly fewer than count at the end of the table). dst must have
// matching column types and must be treated as read-only: it aliases the
// table. start must be a multiple of 64 (morsels start at multiples of
// vector.ChunkCapacity), and so must count unless the scan reaches the end.
func (t *Table) ScanView(dst *vector.Chunk, start, count int64, proj []int) int {
	if start >= t.rows {
		return 0
	}
	end := min(start+count, t.rows)
	for k, j := range proj {
		dst.Col(k).View(t.cols[j], int(start), int(end))
	}
	n := int(end - start)
	dst.SetLen(n)
	return n
}

// MemBytes estimates the resident size of the table.
func (t *Table) MemBytes() int64 {
	if b := t.memBytes.Load(); b != 0 {
		return b
	}
	var b int64
	for _, c := range t.cols {
		b += c.MemBytes()
	}
	t.memBytes.Store(b)
	return b
}

// Value returns the boxed value at (row, col); for tests and result checks.
func (t *Table) Value(row int64, col int) vector.Value {
	return t.cols[col].Value(int(row))
}
