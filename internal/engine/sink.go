package engine

import (
	"github.com/riveterdb/riveter/internal/vector"
)

// LocalState is a worker-private sink state. Concrete types are defined by
// each sink.
type LocalState interface{}

// Sink is a pipeline breaker: it consumes the pipeline's output. Workers
// each own a LocalState; when the pipeline's morsels are exhausted the local
// states are combined into the sink's global state, which is then finalized.
//
// Every sink supports full state serialization at two granularities,
// matching the paper's two persistence strategies: the finalized global
// state (pipeline-level strategy) and an in-flight local state
// (process-level strategy).
type Sink interface {
	// MakeLocal creates a fresh worker-local state.
	MakeLocal() LocalState
	// Consume folds a chunk into the worker-local state.
	Consume(ls LocalState, c *vector.Chunk) error
	// Combine merges a worker-local state into the global state. Called
	// once per worker, single-threaded.
	Combine(ls LocalState) error
	// Finalize completes the global state after all Combine calls.
	Finalize() error

	// SaveGlobal serializes the finalized global state.
	SaveGlobal(enc *vector.Encoder) error
	// LoadGlobal restores a finalized global state (marks the sink final).
	LoadGlobal(dec *vector.Decoder) error
	// SaveLocal serializes one worker-local state.
	SaveLocal(ls LocalState, enc *vector.Encoder) error
	// LoadLocal restores one worker-local state.
	LoadLocal(dec *vector.Decoder) (LocalState, error)

	// MemBytes estimates the resident bytes of the global state plus any
	// combined-but-not-finalized data.
	MemBytes() int64
	// LocalMemBytes estimates the resident bytes of a worker-local state.
	LocalMemBytes(ls LocalState) int64
}

// CollectorSink materializes rows into a row buffer: the final result sink,
// and the materialization point for standalone limits.
// MaxRows < 0 means unlimited.
type CollectorSink struct {
	types []vector.Type
	buf   *RowBuffer
	// MaxRows caps the collected rows (-1 = unlimited); OffsetRows drops a
	// leading prefix at Finalize. Together they implement standalone
	// LIMIT/OFFSET.
	MaxRows    int64
	OffsetRows int64
}

// NewCollectorSink builds a collector for rows of the given types.
func NewCollectorSink(types []vector.Type, maxRows int64) *CollectorSink {
	return &CollectorSink{types: types, buf: NewRowBuffer(types), MaxRows: maxRows}
}

type collectorLocal struct {
	buf *RowBuffer
}

// MakeLocal implements Sink.
func (s *CollectorSink) MakeLocal() LocalState {
	return &collectorLocal{buf: NewRowBuffer(s.types)}
}

// Consume implements Sink.
func (s *CollectorSink) Consume(ls LocalState, c *vector.Chunk) error {
	l := ls.(*collectorLocal)
	if s.MaxRows >= 0 && l.buf.Rows() >= s.MaxRows {
		// Local short-circuit; the global cut happens in Finalize.
		return nil
	}
	l.buf.AppendChunk(c)
	return nil
}

// Combine implements Sink.
func (s *CollectorSink) Combine(ls LocalState) error {
	s.buf.Concat(ls.(*collectorLocal).buf)
	return nil
}

// Finalize implements Sink.
func (s *CollectorSink) Finalize() error {
	lo := s.OffsetRows
	hi := s.buf.Rows()
	if s.MaxRows >= 0 && s.MaxRows < hi {
		hi = s.MaxRows
	}
	if lo == 0 && hi == s.buf.Rows() {
		return nil
	}
	trimmed := NewRowBuffer(s.types)
	for r := lo; r < hi; r++ {
		ci, ri := s.buf.Locate(r)
		trimmed.AppendRowFrom(s.buf.Chunk(ci), ri)
	}
	s.buf = trimmed
	return nil
}

// Buffer implements BufferedSink.
func (s *CollectorSink) Buffer() *RowBuffer { return s.buf }

// SaveGlobal implements Sink.
func (s *CollectorSink) SaveGlobal(enc *vector.Encoder) error {
	enc.Varint(s.MaxRows)
	enc.Varint(s.OffsetRows)
	s.buf.Save(enc)
	return enc.Err()
}

// LoadGlobal implements Sink.
func (s *CollectorSink) LoadGlobal(dec *vector.Decoder) error {
	s.MaxRows = dec.Varint()
	s.OffsetRows = dec.Varint()
	buf, err := loadRowBufferOf(dec, s.types)
	if err != nil {
		return err
	}
	s.buf = buf
	return nil
}

// SaveLocal implements Sink.
func (s *CollectorSink) SaveLocal(ls LocalState, enc *vector.Encoder) error {
	ls.(*collectorLocal).buf.Save(enc)
	return enc.Err()
}

// LoadLocal implements Sink.
func (s *CollectorSink) LoadLocal(dec *vector.Decoder) (LocalState, error) {
	buf, err := loadRowBufferOf(dec, s.types)
	if err != nil {
		return nil, err
	}
	return &collectorLocal{buf: buf}, nil
}

// MemBytes implements Sink.
func (s *CollectorSink) MemBytes() int64 { return s.buf.MemBytes() }

// LocalMemBytes implements Sink.
func (s *CollectorSink) LocalMemBytes(ls LocalState) int64 {
	return ls.(*collectorLocal).buf.MemBytes()
}
