// Package engine implements Riveter's push-based, morsel-driven pipeline
// execution engine — the DuckDB-style substrate the paper's pipeline-level
// suspension strategy is built on.
//
// A physical plan is a DAG of pipelines split at pipeline breakers (hash-join
// build, hash aggregate, sort/top-N, materialization). Each pipeline runs as
// N workers pulling row-range morsels from its source through a chain of
// streaming operators into a sink; every worker owns a local sink state, and
// at pipeline completion the local states are combined into the sink's global
// state and finalized. The engine exposes exactly the two suspension hooks
// the paper needs: after every pipeline finalize (pipeline-level) and at
// every morsel boundary (process-level).
package engine

import (
	"fmt"
	"slices"

	"github.com/riveterdb/riveter/internal/engine/kernel"
	"github.com/riveterdb/riveter/internal/vector"
)

// RowBuffer is a chunked, append-only row store used by sink states: hash
// join build sides, sort inputs, and materialized results.
type RowBuffer struct {
	types  []vector.Type
	chunks []*vector.Chunk
	rows   int64
}

// NewRowBuffer returns an empty buffer for rows of the given column types.
func NewRowBuffer(types []vector.Type) *RowBuffer {
	return &RowBuffer{types: types}
}

// Types returns the column types.
func (b *RowBuffer) Types() []vector.Type { return b.types }

// Rows returns the number of buffered rows.
func (b *RowBuffer) Rows() int64 { return b.rows }

// NumChunks returns the number of chunks.
func (b *RowBuffer) NumChunks() int { return len(b.chunks) }

// Chunk returns chunk i.
func (b *RowBuffer) Chunk(i int) *vector.Chunk { return b.chunks[i] }

func (b *RowBuffer) tail() *vector.Chunk {
	if len(b.chunks) == 0 || b.chunks[len(b.chunks)-1].Full() {
		b.chunks = append(b.chunks, vector.NewChunk(b.types))
	}
	return b.chunks[len(b.chunks)-1]
}

// AppendChunk appends all rows of c.
func (b *RowBuffer) AppendChunk(c *vector.Chunk) {
	b.appendVectors(c.Cols(), 0, c.Len())
}

// appendVectors bulk-appends rows [lo,hi) of the given column vectors,
// packing chunks densely to ChunkCapacity so Locate/Row keep their
// fixed-stride addressing (and checkpoint chunk boundaries stay put).
func (b *RowBuffer) appendVectors(cols []*vector.Vector, lo, hi int) {
	b.rows += int64(hi - lo)
	for lo < hi {
		t := b.tail()
		m := min(hi-lo, vector.ChunkCapacity-t.Len())
		for j, v := range cols {
			t.Col(j).AppendRange(v, lo, lo+m)
		}
		t.SetLen(t.Len() + m)
		lo += m
	}
}

// adoptChunk appends c itself, which the buffer owns from then on. Only
// the last chunk appended may hold fewer than ChunkCapacity rows.
func (b *RowBuffer) adoptChunk(c *vector.Chunk) {
	b.chunks = append(b.chunks, c)
	b.rows += int64(c.Len())
}

// Row returns the boxed values of global row index r.
func (b *RowBuffer) Row(r int64) []vector.Value {
	ci, ri := int(r/vector.ChunkCapacity), int(r%vector.ChunkCapacity)
	return b.chunks[ci].Row(ri)
}

// Locate maps a global row index to (chunk, row-in-chunk).
func (b *RowBuffer) Locate(r int64) (ci, ri int) {
	return int(r / vector.ChunkCapacity), int(r % vector.ChunkCapacity)
}

// chunkedCol is one column of a densely packed RowBuffer as the backing
// slices of its chunks, so row r is element r&(ChunkCapacity-1) of chunk
// r>>ChunkShift. Only the slice of the column's type is set.
type chunkedCol struct {
	typ    vector.Type
	ints   [][]int64
	floats [][]float64
	strs   [][]string
	bools  [][]bool
	nulls  [][]uint64 // nil when no chunk holds a NULL
}

// chunkedCols views every column of buf chunk by chunk. The tables of all
// columns of one physical type share one backing array.
func chunkedCols(buf *RowBuffer) []chunkedCol {
	nc := buf.NumChunks()
	types := buf.Types()
	var perType [vector.TypeDate + 1]int
	for _, t := range types {
		perType[t] += nc
	}
	ints := make([][]int64, perType[vector.TypeInt64]+perType[vector.TypeDate])
	floats := make([][]float64, perType[vector.TypeFloat64])
	strs := make([][]string, perType[vector.TypeString])
	bools := make([][]bool, perType[vector.TypeBool])
	var nulls [][]uint64 // made at the first chunk holding a NULL
	cols := make([]chunkedCol, len(types))
	for j, t := range types {
		c := &cols[j]
		c.typ = t
		switch t {
		case vector.TypeInt64, vector.TypeDate:
			c.ints, ints = ints[:nc:nc], ints[nc:]
		case vector.TypeFloat64:
			c.floats, floats = floats[:nc:nc], floats[nc:]
		case vector.TypeString:
			c.strs, strs = strs[:nc:nc], strs[nc:]
		case vector.TypeBool:
			c.bools, bools = bools[:nc:nc], bools[nc:]
		}
		for ci := 0; ci < nc; ci++ {
			v := buf.Chunk(ci).Col(j)
			switch t {
			case vector.TypeInt64, vector.TypeDate:
				c.ints[ci] = v.Int64s()
			case vector.TypeFloat64:
				c.floats[ci] = v.Float64s()
			case vector.TypeString:
				c.strs[ci] = v.Strings()
			case vector.TypeBool:
				c.bools[ci] = v.Bools()
			}
			if v.HasNulls() {
				if nulls == nil {
					nulls = make([][]uint64, len(types)*nc)
				}
				if c.nulls == nil {
					c.nulls = nulls[j*nc : (j+1)*nc : (j+1)*nc]
				}
				c.nulls[ci] = v.NullWords()
			}
		}
	}
	return cols
}

// gather writes rows of the column into dv, one typed gather per call.
func (c *chunkedCol) gather(dv *vector.Vector, rows []int64) {
	m := len(rows)
	switch c.typ {
	case vector.TypeInt64, vector.TypeDate:
		kernel.GatherChunkedInt64(dv.ResizeInt64(m), c.ints, rows, vector.ChunkShift)
	case vector.TypeFloat64:
		kernel.GatherChunkedFloat64(dv.ResizeFloat64(m), c.floats, rows, vector.ChunkShift)
	case vector.TypeString:
		kernel.GatherChunkedString(dv.ResizeString(m), c.strs, rows, vector.ChunkShift)
	case vector.TypeBool:
		kernel.GatherChunkedBool(dv.ResizeBool(m), c.bools, rows, vector.ChunkShift)
	}
	if c.nulls != nil {
		kernel.GatherChunkedNullBits(dv.EnsureNullWords(m), c.nulls, rows, vector.ChunkShift)
	}
}

// gatherRows returns a buffer of types holding the rows of cols, a
// chunkedCols view of a buffer of those column types, in the order rows
// lists them: each output chunk is one typed gather per column.
func gatherRows(types []vector.Type, cols []chunkedCol, rows []int64) *RowBuffer {
	out := NewRowBuffer(types)
	for lo := 0; lo < len(rows); lo += vector.ChunkCapacity {
		part := rows[lo:min(lo+vector.ChunkCapacity, len(rows))]
		c := vector.NewChunk(types)
		for j := range cols {
			cols[j].gather(c.Col(j), part)
		}
		c.SetLen(len(part))
		out.adoptChunk(c)
	}
	return out
}

// Concat appends all rows of other (which must share types) and leaves
// other dead: the sinks' Combine hands over worker-local buffers that are
// never touched again. It moves other's full chunks by pointer and copies
// the rows of at most one partial chunk — the smaller of b's and other's —
// into the other partial one, so every chunk but the last stays full and
// fixed-stride addressing holds. Rows keep their order within each buffer,
// but b's partial rows may land after other's full chunks.
func (b *RowBuffer) Concat(other *RowBuffer) {
	if len(other.chunks) == 0 {
		return
	}
	if len(b.chunks) == 0 {
		b.chunks, b.rows = other.chunks, other.rows
		return
	}
	b.rows += other.rows
	mine, theirs := b.popPartial(), other.popPartial()
	b.chunks = append(b.chunks, other.chunks...)
	switch {
	case mine == nil && theirs == nil:
		return
	case mine == nil:
		mine, theirs = theirs, nil
	case theirs != nil && theirs.Len() > mine.Len():
		mine, theirs = theirs, mine
	}
	b.chunks = append(b.chunks, mine)
	if theirs != nil {
		b.rows -= int64(theirs.Len()) // appendVectors counts them again
		b.appendVectors(theirs.Cols(), 0, theirs.Len())
	}
}

// popPartial removes and returns the last chunk when it is not full.
func (b *RowBuffer) popPartial() *vector.Chunk {
	last := b.chunks[len(b.chunks)-1]
	if last.Full() {
		return nil
	}
	b.chunks = b.chunks[:len(b.chunks)-1]
	return last
}

// MemBytes estimates the resident size of the buffer.
func (b *RowBuffer) MemBytes() int64 {
	var n int64
	for _, c := range b.chunks {
		n += c.MemBytes()
	}
	return n
}

// Save serializes the buffer.
func (b *RowBuffer) Save(enc *vector.Encoder) {
	enc.Uvarint(uint64(len(b.types)))
	for _, t := range b.types {
		enc.Uvarint(uint64(t))
	}
	enc.Uvarint(uint64(len(b.chunks)))
	for _, c := range b.chunks {
		enc.Chunk(c)
	}
}

// LoadRowBuffer deserializes a buffer written by Save. Save writes densely
// packed chunks, and a buffer that is not — a chunk before the last holding
// fewer than ChunkCapacity rows, or any holding more, or a chunk of other
// width or column types — is refused: Locate's fixed stride would read the
// wrong rows. (A zero-width chunk saves no row count, so its rows are not
// checked; see claimRows.)
func LoadRowBuffer(dec *vector.Decoder) (*RowBuffer, error) {
	nt := int(dec.Uvarint())
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if nt < 0 || nt > 1<<16 {
		return nil, fmt.Errorf("row buffer: implausible column count %d", nt)
	}
	types := make([]vector.Type, nt)
	for i := range types {
		types[i] = vector.Type(dec.Uvarint())
	}
	nc := int(dec.Uvarint())
	if err := dec.Err(); err != nil {
		return nil, err
	}
	b := NewRowBuffer(types)
	for i := 0; i < nc; i++ {
		c := dec.Chunk()
		if err := dec.Err(); err != nil {
			return nil, err
		}
		if c.NumCols() != nt || c.Len() > vector.ChunkCapacity || (nt > 0 && i < nc-1 && c.Len() != vector.ChunkCapacity) {
			return nil, fmt.Errorf("row buffer: chunk %d of %d has %d rows × %d columns; want %d columns, packed to %d rows",
				i, nc, c.Len(), c.NumCols(), nt, vector.ChunkCapacity)
		}
		for j, t := range types {
			if ct := c.Col(j).Type(); ct != t {
				return nil, fmt.Errorf("row buffer: chunk %d column %d is %v, declared %v", i, j, ct, t)
			}
		}
		b.chunks = append(b.chunks, c)
		b.rows += int64(c.Len())
	}
	return b, dec.Err()
}

// loadRowBufferOf is LoadRowBuffer for a sink whose buffer has the given
// column types: a buffer of any other layout is refused, since the sink
// addresses its columns by position.
func loadRowBufferOf(dec *vector.Decoder, types []vector.Type) (*RowBuffer, error) {
	b, err := LoadRowBuffer(dec)
	if err != nil {
		return nil, err
	}
	if !slices.Equal(b.types, types) {
		return nil, fmt.Errorf("row buffer of columns %v where %v belong", b.types, types)
	}
	return b, nil
}

// claimRows checks a loaded buffer against the row count its sink saved
// beside it. A zero-width chunk saves no row count, so a buffer without
// columns takes its rows from the count: it must hold one chunk per
// ChunkCapacity rows, which bounds the count by the bytes read.
func (b *RowBuffer) claimRows(rows int64) error {
	if len(b.types) > 0 {
		if b.rows != rows {
			return fmt.Errorf("row buffer of %d rows claims %d", b.rows, rows)
		}
		return nil
	}
	if want := (rows + vector.ChunkCapacity - 1) / vector.ChunkCapacity; int64(len(b.chunks)) != want {
		return fmt.Errorf("row buffer without columns claims %d rows in %d chunks", rows, len(b.chunks))
	}
	for i, c := range b.chunks {
		c.SetLen(int(min(vector.ChunkCapacity, rows-int64(i)*vector.ChunkCapacity)))
	}
	b.rows = rows
	return nil
}
