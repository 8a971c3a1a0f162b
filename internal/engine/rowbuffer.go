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
	b.appendVectors(c.Cols(), c.Len())
}

// appendVectors bulk-appends rows [0,n) of the given column vectors,
// packing chunks densely to ChunkCapacity so Locate/Row keep their
// fixed-stride addressing (and checkpoint chunk boundaries stay put).
func (b *RowBuffer) appendVectors(cols []*vector.Vector, n int) {
	start := 0
	for start < n {
		t := b.tail()
		m := n - start
		if room := vector.ChunkCapacity - t.Len(); m > room {
			m = room
		}
		for j, v := range cols {
			t.Col(j).AppendRange(v, start, start+m)
		}
		t.SetLen(t.Len() + m)
		start += m
	}
	b.rows += int64(n)
}

// adoptChunk appends c itself, which the buffer owns from then on. Only
// the last chunk appended may hold fewer than ChunkCapacity rows.
func (b *RowBuffer) adoptChunk(c *vector.Chunk) {
	b.chunks = append(b.chunks, c)
	b.rows += int64(c.Len())
}

// AppendRowFrom appends row i of c.
func (b *RowBuffer) AppendRowFrom(c *vector.Chunk, i int) {
	b.tail().AppendRowFrom(c, i)
	b.rows++
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

// Value returns the boxed value at (row, col).
func (b *RowBuffer) Value(r int64, col int) vector.Value {
	ci, ri := b.Locate(r)
	return b.chunks[ci].Col(col).Value(ri)
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
		b.appendVectors(theirs.Cols(), theirs.Len())
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
