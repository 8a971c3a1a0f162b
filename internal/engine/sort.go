package engine

import (
	"cmp"
	"slices"

	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

// sortRows stores rows as sort-key columns followed by payload columns, so
// comparisons never re-evaluate key expressions.
//
// SortSink is the pipeline breaker for ORDER BY: workers buffer rows
// locally, Combine concatenates, and Finalize sorts the global buffer and
// materializes it in order. A top-N sink (NewTopNSink) fuses ORDER BY +
// LIMIT: local states keep at most a bounded number of candidate rows,
// and Finalize cuts the sorted rows to the limit after the offset.
type SortSink struct {
	keys     []plan.SortKey
	keyProgs []*expr.Program
	payTypes []vector.Type
	rowTypes []vector.Type

	Limit  int64 // -1 = a full sort
	Offset int64
}

// sortState is a sort's global state.
type sortState struct {
	buf RowBuffer  // keys ++ payload, unsorted until Finalize
	out *RowBuffer // payload only, sorted
}

// NewSortSink builds a sort sink for the given keys over input types.
func NewSortSink(keys []plan.SortKey, inTypes []vector.Type) (*SortSink, error) {
	kt := make([]vector.Type, len(keys))
	exprs := make([]expr.Expr, len(keys))
	for i, k := range keys {
		kt[i], exprs[i] = k.Expr.Type(), k.Expr
	}
	progs, err := compilePrograms(exprs)
	if err != nil {
		return nil, err
	}
	rt := append(append([]vector.Type{}, kt...), inTypes...)
	return &SortSink{keys: keys, keyProgs: progs, payTypes: inTypes, rowTypes: rt, Limit: -1}, nil
}

// NewTopNSink builds a top-N sink: a sort keeping limit rows after offset.
func NewTopNSink(keys []plan.SortKey, inTypes []vector.Type, limit, offset int64) (*SortSink, error) {
	s, err := NewSortSink(keys, inTypes)
	if err != nil {
		return nil, err
	}
	s.Limit, s.Offset = limit, offset
	return s, nil
}

type sortLocal struct {
	buf      *RowBuffer
	keyInsts []*expr.Instance
	// keyVecs and rowCols are per-chunk scratch for the evaluated keys and
	// the buffer's column layout; worker-local, so plain reuse is
	// race-free.
	keyVecs []*vector.Vector
	rowCols []*vector.Vector
}

func (s *SortSink) newLocal(buf *RowBuffer) *sortLocal {
	return &sortLocal{buf: buf, keyInsts: newInstances(s.keyProgs), keyVecs: make([]*vector.Vector, len(s.keyProgs))}
}

// MakeGlobal implements Sink.
func (s *SortSink) MakeGlobal([]GlobalState) GlobalState {
	return &sortState{buf: RowBuffer{types: s.rowTypes}}
}

// MakeLocal implements Sink.
func (s *SortSink) MakeLocal(GlobalState) LocalState { return s.newLocal(NewRowBuffer(s.rowTypes)) }

// Consume implements Sink: it lays out the evaluated keys then the input
// columns and appends the whole chunk, as the join build does. A top-N
// trims the local buffer when it grows past 4x the rows it keeps to bound
// memory.
func (s *SortSink) Consume(ls LocalState, c *vector.Chunk) error {
	l := ls.(*sortLocal)
	if err := evalInstances(l.keyInsts, c, l.keyVecs); err != nil {
		return err
	}
	l.rowCols = append(append(l.rowCols[:0], l.keyVecs...), c.Cols()...)
	l.buf.appendVectors(l.rowCols, 0, c.Len())
	keep := s.Offset + s.Limit
	if keep > 0 && l.buf.Rows() > 4*keep+int64(vector.ChunkCapacity) {
		l.buf = s.sorted(l.buf, 0, keep, 0)
	}
	return nil
}

// Combine implements Sink.
func (s *SortSink) Combine(gs GlobalState, ls LocalState) error {
	gs.(*sortState).buf.Concat(ls.(*sortLocal).buf)
	return nil
}

// Finalize implements Sink: it sorts, cuts a top-N to its rows and
// gathers their payload.
func (s *SortSink) Finalize(gs GlobalState) error {
	g := gs.(*sortState)
	g.out = s.sorted(&g.buf, s.Offset, s.Limit, len(s.keys))
	g.buf = RowBuffer{types: s.rowTypes} // release pre-sort copy
	return nil
}

// sorted orders the keyed buffer buf, skips its first skip rows and
// returns the next keep (all of them for a negative keep) as a buffer of
// buf's columns from column from on: the payload for Finalize, keys and
// payload for a top-N's trim.
func (s *SortSink) sorted(buf *RowBuffer, skip, keep int64, from int) *RowBuffer {
	cols := chunkedCols(buf)
	perm := sortPerm(cols[:len(s.keys)], s.keys, buf.Rows())
	perm = perm[min(skip, int64(len(perm))):]
	if keep >= 0 && keep < int64(len(perm)) {
		perm = perm[:keep]
	}
	return gatherRows(buf.Types()[from:], cols[from:], perm)
}

// sortKeyCol is one sort key's column flattened into one contiguous array
// of its type, so the comparator never touches boxed values or chunk
// boundaries.
type sortKeyCol struct {
	desc  bool
	typ   vector.Type
	ints  []int64
	flts  []float64
	strs  []string
	bools []bool
	nulls []bool // nil when no row is NULL
}

// flattenKeys flattens the n rows of the key columns cols.
func flattenKeys(cols []chunkedCol, keys []plan.SortKey, n int64) []sortKeyCol {
	out := make([]sortKeyCol, len(keys))
	for k := range keys {
		c, f := &cols[k], &out[k]
		f.desc, f.typ = keys[k].Desc, c.typ
		switch c.typ {
		case vector.TypeInt64, vector.TypeDate:
			f.ints = flatten(c.ints, n)
		case vector.TypeFloat64:
			f.flts = flatten(c.floats, n)
		case vector.TypeString:
			f.strs = flatten(c.strs, n)
		case vector.TypeBool:
			f.bools = flatten(c.bools, n)
		}
		if c.nulls != nil {
			f.nulls = make([]bool, n)
			for r := range f.nulls {
				w, i := c.nulls[r>>vector.ChunkShift], r&(vector.ChunkCapacity-1)
				f.nulls[r] = i>>6 < len(w) && w[i>>6]&(1<<(i&63)) != 0
			}
		}
	}
	return out
}

// flatten concatenates the n values of a chunked column.
func flatten[T any](parts [][]T, n int64) []T {
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// compareKeys orders rows a and b by the keys; NULLs sort first ascending.
func compareKeys(keys []sortKeyCol, a, b int64) int {
	for k := range keys {
		f := &keys[k]
		an, bn := f.nulls != nil && f.nulls[a], f.nulls != nil && f.nulls[b]
		var c int
		switch {
		case an && bn:
			c = 0
		case an:
			c = -1
		case bn:
			c = 1
		default:
			switch f.typ {
			case vector.TypeInt64, vector.TypeDate:
				c = cmpOrdered(f.ints[a], f.ints[b])
			case vector.TypeFloat64:
				c = cmpOrdered(f.flts[a], f.flts[b])
			case vector.TypeString:
				c = cmpOrdered(f.strs[a], f.strs[b])
			case vector.TypeBool:
				var ai, bi int8
				if f.bools[a] {
					ai = 1
				}
				if f.bools[b] {
					bi = 1
				}
				c = cmpOrdered(ai, bi)
			}
		}
		if c == 0 {
			continue
		}
		if f.desc {
			return -c
		}
		return c
	}
	return 0
}

func cmpOrdered[T int64 | float64 | string | int8](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// sortPerm returns the permutation that orders the n rows of the key
// columns cols by the keys, then by row id: a total order, so the
// permutation is the one a stable sort gives.
func sortPerm(cols []chunkedCol, keys []plan.SortKey, n int64) []int64 {
	flat := flattenKeys(cols, keys, n)
	perm := make([]int64, n)
	for i := range perm {
		perm[i] = int64(i)
	}
	slices.SortFunc(perm, func(a, b int64) int {
		if c := compareKeys(flat, a, b); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return perm
}

// Buffer implements BufferedSink.
func (s *SortSink) Buffer(gs GlobalState) *RowBuffer { return gs.(*sortState).out }

// SaveGlobal implements Sink.
func (s *SortSink) SaveGlobal(gs GlobalState, enc *vector.Encoder) error {
	gs.(*sortState).out.Save(enc)
	return enc.Err()
}

// LoadGlobal implements Sink.
func (s *SortSink) LoadGlobal(gs GlobalState, dec *vector.Decoder) error {
	out, err := loadRowBufferOf(dec, s.payTypes)
	if err != nil {
		return err
	}
	gs.(*sortState).out = out
	return nil
}

// SaveLocal implements Sink.
func (s *SortSink) SaveLocal(ls LocalState, enc *vector.Encoder) error {
	ls.(*sortLocal).buf.Save(enc)
	return enc.Err()
}

// LoadLocal implements Sink.
func (s *SortSink) LoadLocal(_ GlobalState, dec *vector.Decoder) (LocalState, error) {
	buf, err := loadRowBufferOf(dec, s.rowTypes)
	if err != nil {
		return nil, err
	}
	return s.newLocal(buf), nil
}

// MemBytes implements Sink.
func (s *SortSink) MemBytes(gs GlobalState) int64 {
	g := gs.(*sortState)
	b := g.buf.MemBytes()
	if g.out != nil {
		b += g.out.MemBytes()
	}
	return b
}

// LocalMemBytes implements Sink.
func (s *SortSink) LocalMemBytes(ls LocalState) int64 {
	return ls.(*sortLocal).buf.MemBytes()
}
