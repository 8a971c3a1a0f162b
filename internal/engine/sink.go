package engine

import (
	"github.com/riveterdb/riveter/internal/vector"
)

// GlobalState is what an execution's worker-local states of a sink combine
// into; the executor owns one per pipeline. Concrete types are the sinks'.
type GlobalState interface{}

// LocalState is a worker-private sink state. Concrete types are defined by
// each sink.
type LocalState interface{}

// Sink is a pipeline breaker: it consumes the pipeline's output. A sink only
// describes that work; every execution makes its own global state and one
// LocalState per worker, and every method takes the state it works on. When
// the pipeline's morsels are exhausted the local states are combined into
// the global state, which is then finalized.
//
// Every sink supports full state serialization at two granularities,
// matching the paper's two persistence strategies: the finalized global
// state (pipeline-level strategy) and an in-flight local state
// (process-level strategy).
type Sink interface {
	// MakeGlobal creates an execution's global state. states holds those
	// of the pipelines before, dependencies included: a sink reading one
	// (the mark sink reads its build's) keeps it.
	MakeGlobal(states []GlobalState) GlobalState
	// MakeLocal creates a fresh worker-local state for global state gs.
	MakeLocal(gs GlobalState) LocalState
	// Consume folds a chunk into the worker-local state.
	Consume(ls LocalState, c *vector.Chunk) error
	// Combine merges a worker-local state into the global state. Called
	// once per worker, single-threaded.
	Combine(gs GlobalState, ls LocalState) error
	// Finalize completes the global state after all Combine calls.
	Finalize(gs GlobalState) error

	// SaveGlobal serializes a finalized global state.
	SaveGlobal(gs GlobalState, enc *vector.Encoder) error
	// LoadGlobal restores a finalized global state into gs.
	LoadGlobal(gs GlobalState, dec *vector.Decoder) error
	// SaveLocal serializes one worker-local state.
	SaveLocal(ls LocalState, enc *vector.Encoder) error
	// LoadLocal restores one worker-local state for global state gs.
	LoadLocal(gs GlobalState, dec *vector.Decoder) (LocalState, error)

	// MemBytes estimates the resident bytes of a global state, combined
	// but not finalized data included.
	MemBytes(gs GlobalState) int64
	// LocalMemBytes estimates the resident bytes of a worker-local state.
	LocalMemBytes(ls LocalState) int64
}

// CollectorSink materializes rows into a row buffer: the final result sink,
// and the materialization point for standalone limits.
// MaxRows < 0 means unlimited.
type CollectorSink struct {
	types []vector.Type
	// MaxRows caps the collected rows (-1 = unlimited); OffsetRows drops a
	// leading prefix at Finalize. Together they implement standalone
	// LIMIT/OFFSET.
	MaxRows    int64
	OffsetRows int64
}

// NewCollectorSink builds a collector for rows of the given types.
func NewCollectorSink(types []vector.Type, maxRows int64) *CollectorSink {
	return &CollectorSink{types: types, MaxRows: maxRows}
}

// MakeGlobal implements Sink: a collector's global state, as a worker's,
// is a *RowBuffer of the rows.
func (s *CollectorSink) MakeGlobal([]GlobalState) GlobalState { return NewRowBuffer(s.types) }

// MakeLocal implements Sink.
func (s *CollectorSink) MakeLocal(GlobalState) LocalState { return NewRowBuffer(s.types) }

// Consume implements Sink.
func (s *CollectorSink) Consume(ls LocalState, c *vector.Chunk) error {
	l := ls.(*RowBuffer)
	if s.MaxRows >= 0 && l.Rows() >= s.MaxRows {
		// Local short-circuit; the global cut happens in Finalize.
		return nil
	}
	l.AppendChunk(c)
	return nil
}

// Combine implements Sink.
func (s *CollectorSink) Combine(gs GlobalState, ls LocalState) error {
	gs.(*RowBuffer).Concat(ls.(*RowBuffer))
	return nil
}

// Finalize implements Sink.
func (s *CollectorSink) Finalize(gs GlobalState) error {
	g := gs.(*RowBuffer)
	lo := s.OffsetRows
	hi := g.Rows()
	if s.MaxRows >= 0 && s.MaxRows < hi {
		hi = s.MaxRows
	}
	if lo == 0 && hi == g.Rows() {
		return nil
	}
	// Copy the kept rows chunk by chunk: g is densely packed.
	trimmed := NewRowBuffer(s.types)
	for r := lo; r < hi; {
		ci, ri := g.Locate(r)
		c := g.Chunk(ci)
		n := min(int64(c.Len()-ri), hi-r)
		trimmed.appendVectors(c.Cols(), ri, ri+int(n))
		r += n
	}
	*g = *trimmed
	return nil
}

// Buffer implements BufferedSink.
func (s *CollectorSink) Buffer(gs GlobalState) *RowBuffer { return gs.(*RowBuffer) }

// SaveGlobal implements Sink: the limit and offset, then the rows.
func (s *CollectorSink) SaveGlobal(gs GlobalState, enc *vector.Encoder) error {
	enc.Varint(s.MaxRows)
	enc.Varint(s.OffsetRows)
	gs.(*RowBuffer).Save(enc)
	return enc.Err()
}

// LoadGlobal implements Sink, past the limit and offset: the rows are cut.
func (s *CollectorSink) LoadGlobal(gs GlobalState, dec *vector.Decoder) error {
	dec.Varint()
	dec.Varint()
	buf, err := loadRowBufferOf(dec, s.types)
	if err != nil {
		return err
	}
	*gs.(*RowBuffer) = *buf
	return nil
}

// SaveLocal implements Sink.
func (s *CollectorSink) SaveLocal(ls LocalState, enc *vector.Encoder) error {
	ls.(*RowBuffer).Save(enc)
	return enc.Err()
}

// LoadLocal implements Sink.
func (s *CollectorSink) LoadLocal(_ GlobalState, dec *vector.Decoder) (LocalState, error) {
	return loadRowBufferOf(dec, s.types)
}

// MemBytes implements Sink.
func (s *CollectorSink) MemBytes(gs GlobalState) int64 { return gs.(*RowBuffer).MemBytes() }

// LocalMemBytes implements Sink.
func (s *CollectorSink) LocalMemBytes(ls LocalState) int64 {
	return ls.(*RowBuffer).MemBytes()
}
