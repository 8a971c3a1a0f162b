package engine

import (
	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/vector"
)

// MorselRows is the number of rows claimed by a worker per morsel. One morsel
// is the granularity of both work stealing and process-level suspension.
const MorselRows = vector.ChunkCapacity

// Source produces the morsels of a pipeline. Implementations must be safe
// for concurrent ReadMorsel calls with distinct destination chunks.
//
// The sources here hand out views: ReadMorsel points dst's columns at the
// rows of the table or sink buffer (vector.View) instead of copying them,
// so every operator treats its input chunk as read-only.
type Source interface {
	// MorselCount returns the total number of morsels. It is only called
	// after the source's dependency pipelines have finalized.
	MorselCount() int64
	// ReadMorsel sets dst to the rows of morsel idx and returns the row
	// count (0 at the end of ragged inputs).
	ReadMorsel(idx int64, dst *vector.Chunk) (int, error)
	// OutTypes returns the column types the source produces.
	OutTypes() []vector.Type
	// MorselBytes returns the MemBytes of the rows ReadMorsel(idx) gives,
	// which the morsel counts as processed. Only for a morsel of rows.
	MorselBytes(idx int64) int64
}

// TableSource scans a base table with column projection.
type TableSource struct {
	table *catalog.Table
	proj  []int
	types []vector.Type
}

// NewTableSource builds a table scan source.
func NewTableSource(t *catalog.Table, proj []int) *TableSource {
	types := make([]vector.Type, len(proj))
	for i, j := range proj {
		types[i] = t.Schema().Columns[j].Type
	}
	return &TableSource{table: t, proj: proj, types: types}
}

// MorselCount implements Source.
func (s *TableSource) MorselCount() int64 {
	return (s.table.NumRows() + MorselRows - 1) / MorselRows
}

// ReadMorsel implements Source.
func (s *TableSource) ReadMorsel(idx int64, dst *vector.Chunk) (int, error) {
	n := s.table.ScanView(dst, idx*MorselRows, MorselRows, s.proj)
	return n, nil
}

// OutTypes implements Source.
func (s *TableSource) OutTypes() []vector.Type { return s.types }

// MorselBytes implements Source from the table's cached column sizes.
func (s *TableSource) MorselBytes(idx int64) int64 {
	var b int64
	for _, j := range s.proj {
		b += s.table.ChunkBytes(j, idx)
	}
	return b
}

// BufferedSink is implemented by sinks whose finalized global state is a
// row buffer scannable by downstream pipelines (aggregates, sorts,
// collectors, the mark sink of a right-semi or right-anti join). The
// hash-join build sink is not buffered: probes and mark sinks address it
// directly.
type BufferedSink interface {
	Sink
	// Buffer returns the finalized output rows of global state gs. Only
	// valid after Finalize.
	Buffer(gs GlobalState) *RowBuffer
}

// SinkSource scans the finalized buffer of an upstream pipeline's sink. An
// execution reads a copy bound to its own global state of it (bind).
type SinkSource struct {
	sink  BufferedSink
	from  int // the breaker's pipeline
	types []vector.Type
	buf   *RowBuffer // set in a bound copy only
}

// NewSinkSource builds a source over the buffered sink of pipeline from.
func NewSinkSource(sink BufferedSink, from int, types []vector.Type) *SinkSource {
	return &SinkSource{sink: sink, from: from, types: types}
}

// bind returns the source reading the breaker's rows among an execution's
// global states. Its pipeline depends on the breaker, so they are final.
func (s *SinkSource) bind(states []GlobalState) *SinkSource {
	b := *s
	b.buf = s.sink.Buffer(states[s.from])
	return &b
}

// MorselCount implements Source.
func (s *SinkSource) MorselCount() int64 { return int64(s.buf.NumChunks()) }

// ReadMorsel implements Source.
func (s *SinkSource) ReadMorsel(idx int64, dst *vector.Chunk) (int, error) {
	if idx >= int64(s.buf.NumChunks()) {
		return 0, nil
	}
	dst.View(s.buf.Chunk(int(idx)))
	return dst.Len(), nil
}

// OutTypes implements Source.
func (s *SinkSource) OutTypes() []vector.Type { return s.types }

// MorselBytes implements Source from the buffer's chunk.
func (s *SinkSource) MorselBytes(idx int64) int64 { return s.buf.Chunk(int(idx)).ViewBytes() }
