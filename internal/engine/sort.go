package engine

import (
	"sort"

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
	keyVecs  []*vector.Vector // per-chunk evaluated keys
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

// appendKeyed appends chunk rows with evaluated key prefix into l's buffer.
func (l *sortLocal) appendKeyed(c *vector.Chunk) error {
	if err := evalInstances(l.keyInsts, c, l.keyVecs); err != nil {
		return err
	}
	dst, keyVecs := l.buf, l.keyVecs
	for i := 0; i < c.Len(); i++ {
		t := dst.tail()
		for k, kv := range keyVecs {
			t.Col(k).AppendFrom(kv, i)
		}
		for j := 0; j < c.NumCols(); j++ {
			t.Col(len(keyVecs)+j).AppendFrom(c.Col(j), i)
		}
		t.SetLen(t.Len() + 1)
		dst.rows++
	}
	return nil
}

// Consume implements Sink; a top-N trims the local buffer when it grows
// past 4x the rows it keeps to bound memory.
func (s *SortSink) Consume(ls LocalState, c *vector.Chunk) error {
	l := ls.(*sortLocal)
	if err := l.appendKeyed(c); err != nil {
		return err
	}
	keep := s.Offset + s.Limit
	if keep > 0 && l.buf.Rows() > 4*keep+int64(vector.ChunkCapacity) {
		l.buf = trimTopN(l.buf, s.keys, s.rowTypes, keep)
	}
	return nil
}

// Combine implements Sink.
func (s *SortSink) Combine(gs GlobalState, ls LocalState) error {
	gs.(*sortState).buf.Concat(ls.(*sortLocal).buf)
	return nil
}

// sortData holds the key columns of a keyed buffer flattened into
// contiguous arrays, so the sort's comparator never touches boxed values.
type sortData struct {
	keys  []plan.SortKey
	ints  [][]int64
	flts  [][]float64
	strs  [][]string
	bools [][]bool
	nulls [][]bool
	types []vector.Type
}

// flattenKeys extracts the first nKeys columns of buf into flat arrays.
func flattenKeys(buf *RowBuffer, keys []plan.SortKey) *sortData {
	n := int(buf.Rows())
	sd := &sortData{
		keys:  keys,
		ints:  make([][]int64, len(keys)),
		flts:  make([][]float64, len(keys)),
		strs:  make([][]string, len(keys)),
		bools: make([][]bool, len(keys)),
		nulls: make([][]bool, len(keys)),
		types: make([]vector.Type, len(keys)),
	}
	for k, key := range keys {
		t := key.Expr.Type()
		sd.types[k] = t
		nulls := make([]bool, n)
		switch t {
		case vector.TypeInt64, vector.TypeDate:
			sd.ints[k] = make([]int64, n)
		case vector.TypeFloat64:
			sd.flts[k] = make([]float64, n)
		case vector.TypeString:
			sd.strs[k] = make([]string, n)
		case vector.TypeBool:
			sd.bools[k] = make([]bool, n)
		}
		r := 0
		for ci := 0; ci < buf.NumChunks(); ci++ {
			col := buf.Chunk(ci).Col(k)
			m := col.Len()
			for i := 0; i < m; i++ {
				if col.IsNull(i) {
					nulls[r] = true
				} else {
					switch t {
					case vector.TypeInt64, vector.TypeDate:
						sd.ints[k][r] = col.Int64s()[i]
					case vector.TypeFloat64:
						sd.flts[k][r] = col.Float64s()[i]
					case vector.TypeString:
						sd.strs[k][r] = col.Strings()[i]
					case vector.TypeBool:
						sd.bools[k][r] = col.Bools()[i]
					}
				}
				r++
			}
		}
		sd.nulls[k] = nulls
	}
	return sd
}

// compare orders rows a and b; NULLs sort first ascending.
func (sd *sortData) compare(a, b int64) int {
	for k := range sd.keys {
		an, bn := sd.nulls[k][a], sd.nulls[k][b]
		var c int
		switch {
		case an && bn:
			c = 0
		case an:
			c = -1
		case bn:
			c = 1
		default:
			switch sd.types[k] {
			case vector.TypeInt64, vector.TypeDate:
				c = cmpOrdered(sd.ints[k][a], sd.ints[k][b])
			case vector.TypeFloat64:
				c = cmpOrdered(sd.flts[k][a], sd.flts[k][b])
			case vector.TypeString:
				c = cmpOrdered(sd.strs[k][a], sd.strs[k][b])
			case vector.TypeBool:
				var ai, bi int8
				if sd.bools[k][a] {
					ai = 1
				}
				if sd.bools[k][b] {
					bi = 1
				}
				c = cmpOrdered(ai, bi)
			}
		}
		if c == 0 {
			continue
		}
		if sd.keys[k].Desc {
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

// sortPerm returns the stable sort permutation of the keyed buffer.
func sortPerm(buf *RowBuffer, keys []plan.SortKey) []int64 {
	n := buf.Rows()
	perm := make([]int64, n)
	for i := range perm {
		perm[i] = int64(i)
	}
	sd := flattenKeys(buf, keys)
	sort.SliceStable(perm, func(i, j int) bool {
		return sd.compare(perm[i], perm[j]) < 0
	})
	return perm
}

// materializeSorted builds a payload-only buffer following perm.
func materializeSorted(buf *RowBuffer, nKeys int, payTypes []vector.Type, perm []int64) *RowBuffer {
	out := NewRowBuffer(payTypes)
	for _, r := range perm {
		ci, ri := buf.Locate(r)
		src := buf.Chunk(ci)
		t := out.tail()
		for j := range payTypes {
			t.Col(j).AppendFrom(src.Col(nKeys+j), ri)
		}
		t.SetLen(t.Len() + 1)
		out.rows++
	}
	return out
}

// Finalize implements Sink: it sorts, cuts a top-N to its rows and
// materializes them.
func (s *SortSink) Finalize(gs GlobalState) error {
	g := gs.(*sortState)
	perm := sortPerm(&g.buf, s.keys)
	lo := min(s.Offset, int64(len(perm)))
	hi := lo + s.Limit
	if s.Limit < 0 || hi > int64(len(perm)) {
		hi = int64(len(perm))
	}
	g.out = materializeSorted(&g.buf, len(s.keys), s.payTypes, perm[lo:hi])
	g.buf = RowBuffer{types: s.rowTypes} // release pre-sort copy
	return nil
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

// trimTopN sorts the keyed buffer and keeps the first `keep` keyed rows.
func trimTopN(buf *RowBuffer, keys []plan.SortKey, rowTypes []vector.Type, keep int64) *RowBuffer {
	perm := sortPerm(buf, keys)
	if int64(len(perm)) > keep {
		perm = perm[:keep]
	}
	out := NewRowBuffer(rowTypes)
	for _, r := range perm {
		ci, ri := buf.Locate(r)
		out.AppendRowFrom(buf.Chunk(ci), ri)
	}
	return out
}
