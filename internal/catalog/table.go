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

	// memBytes caches MemBytes, which reads every string of the table and
	// is asked for on every submission; 0 = not computed. Invalidated on
	// append, atomic because submissions race each other.
	memBytes atomic.Int64
	// chunkBytes caches, per column, ChunkBytes of each of its chunks; nil
	// = not computed. Invalidated on append, atomic because scans race
	// each other.
	chunkBytes []atomic.Pointer[[]int64]
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema *Schema) *Table {
	return &Table{name: name, schema: schema, cols: schema.NewColumns(0), chunkBytes: make([]atomic.Pointer[[]int64], schema.Arity())}
}

// TableOf adopts fully built column vectors as a table: one vector per
// schema column, of the column's type, all of one length. The table owns
// the vectors from here on. MemBytes is computed on first use.
func TableOf(name string, schema *Schema, cols []*vector.Vector) (*Table, error) {
	if len(cols) != schema.Arity() {
		return nil, fmt.Errorf("table %s: %d columns for a %d-column schema", name, len(cols), schema.Arity())
	}
	t := &Table{name: name, schema: schema, cols: cols, chunkBytes: make([]atomic.Pointer[[]int64], len(cols))}
	for j, col := range cols {
		if want, got := schema.Columns[j].Type, col.Type(); want != got {
			return nil, fmt.Errorf("table %s column %s: type %v, schema says %v", name, schema.Columns[j].Name, got, want)
		}
		if j == 0 {
			t.rows = int64(col.Len())
		} else if int64(col.Len()) != t.rows {
			return nil, fmt.Errorf("table %s column %s: %d rows, column %s has %d", name, schema.Columns[j].Name, col.Len(), schema.Columns[0].Name, t.rows)
		}
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows returns the current row count.
func (t *Table) NumRows() int64 { return t.rows }

// AppendRow appends a single row of boxed values. It is the slow path that
// tests use to build small tables; the loaders build typed columns and
// adopt them with TableOf.
func (t *Table) AppendRow(vals ...vector.Value) error {
	if len(vals) != t.schema.Arity() {
		return fmt.Errorf("table %s: append row of %d values to %d-column schema", t.name, len(vals), t.schema.Arity())
	}
	for j, col := range t.cols {
		col.AppendValue(vals[j])
	}
	t.rows++
	t.memBytes.Store(0)
	for j := range t.chunkBytes {
		t.chunkBytes[j].Store(nil)
	}
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

// ChunkBytes returns the MemBytes of column col's rows [chunk*ChunkCapacity,
// (chunk+1)*ChunkCapacity) as ScanView views them. A column's sizes are
// computed once, on first use: a scan asks for every morsel's, and a
// string column's size is a pass over its strings.
func (t *Table) ChunkBytes(col int, chunk int64) int64 {
	sizes := t.chunkBytes[col].Load()
	if sizes == nil {
		c := t.cols[col]
		s := make([]int64, (t.rows+vector.ChunkCapacity-1)/vector.ChunkCapacity)
		v := vector.New(c.Type(), 0)
		for i := range s {
			lo := i * vector.ChunkCapacity
			v.View(c, lo, min(lo+vector.ChunkCapacity, c.Len()))
			s[i] = v.MemBytes()
		}
		sizes = &s
		t.chunkBytes[col].Store(sizes)
	}
	return (*sizes)[chunk]
}

// Value returns the boxed value at (row, col); for tests and result checks.
func (t *Table) Value(row int64, col int) vector.Value {
	return t.cols[col].Value(int(row))
}
