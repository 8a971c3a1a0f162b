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

// AppendRowFrom appends row i of c.
func (b *RowBuffer) AppendRowFrom(c *vector.Chunk, i int) {
	b.tail().AppendRowFrom(c, i)
	b.rows++
}

// AppendRowValues appends one boxed row.
func (b *RowBuffer) AppendRowValues(vals ...vector.Value) {
	b.tail().AppendRowValues(vals...)
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
// never touched again. Into an empty buffer it takes other's chunks instead
// of copying them; they are packed densely already, so fixed-stride
// addressing holds.
func (b *RowBuffer) Concat(other *RowBuffer) {
	if len(b.chunks) == 0 {
		b.chunks, b.rows = other.chunks, other.rows
		return
	}
	for _, c := range other.chunks {
		b.AppendChunk(c)
	}
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
// width — is refused: Locate's fixed stride would read the wrong rows. (A
// zero-width chunk saves no row count, so its rows are not checked.)
func LoadRowBuffer(dec *vector.Decoder) (*RowBuffer, error) {
	nt := int(dec.Uvarint())
	if err := dec.Err(); err != nil {
		return nil, err
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
		b.chunks = append(b.chunks, c)
		b.rows += int64(c.Len())
	}
	return b, dec.Err()
}
