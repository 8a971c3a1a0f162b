package engine

import (
	"bytes"
	"fmt"
	"sync"

	"github.com/riveterdb/riveter/internal/engine/kernel"
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

// flatAggTable is the aggregate hash table, open-addressed. Encoded group
// keys live back-to-back in one byte arena addressed by offset, the key
// values live in one typed column per group-by expression (row g is group
// g's first-seen key), the per-group accumulators live in struct-of-arrays
// columns (one aggCol per aggregate spec), and the probe path is FNV hash +
// linear scan over a power-of-two slot array, so a probe allocates nothing.
// Group indices are dense and assigned in first-seen order, which is also
// the output and the checkpoint order.
type flatAggTable struct {
	specs []plan.AggSpec

	slots  []uint32 // group index + 1; 0 = empty
	mask   uint32
	hashes []uint64 // per group, for rehash and cheap probe rejection
	keyOff []int    // arena start offset per group; end = next start or len
	arena  []byte
	keys   []*vector.Vector // one column per group-by expression (save/finalize)
	cols   []aggCol
	n      int
}

// aggCol is the struct-of-arrays accumulator for one aggregate spec across
// all groups. sumF/sumI/count are maintained for every spec because the v2
// state format writes all three per spec; minmax and distinct are allocated
// only for the specs that use them.
type aggCol struct {
	sumF     []float64
	sumI     []int64
	count    []int64
	minmax   []vector.Value
	distinct []map[vector.Value]struct{}
}

const flatAggInitSlots = 64

// distinctMapSizeHint pre-sizes per-group DISTINCT sets so the first few
// inserts don't each trigger an incremental map growth allocation.
const distinctMapSizeHint = 8

func newFlatAggTable(specs []plan.AggSpec, keyTypes []vector.Type) *flatAggTable {
	keys := make([]*vector.Vector, len(keyTypes))
	for i, kt := range keyTypes {
		keys[i] = vector.New(kt, 0)
	}
	return &flatAggTable{
		specs: specs,
		slots: make([]uint32, flatAggInitSlots),
		mask:  flatAggInitSlots - 1,
		keys:  keys,
		cols:  make([]aggCol, len(specs)),
	}
}

// reset empties the table, keeping all backing arrays for reuse.
func (t *flatAggTable) reset() {
	for i := range t.slots {
		t.slots[i] = 0
	}
	t.hashes = t.hashes[:0]
	t.keyOff = t.keyOff[:0]
	t.arena = t.arena[:0]
	for _, k := range t.keys {
		k.Reset()
	}
	for i := range t.cols {
		c := &t.cols[i]
		c.sumF = c.sumF[:0]
		c.sumI = c.sumI[:0]
		c.count = c.count[:0]
		c.minmax = c.minmax[:0]
		c.distinct = c.distinct[:0]
	}
	t.n = 0
}

// keyBytes returns group g's encoded key, borrowed from the arena.
func (t *flatAggTable) keyBytes(g int32) []byte {
	start := t.keyOff[g]
	end := len(t.arena)
	if int(g)+1 < t.n {
		end = t.keyOff[g+1]
	}
	return t.arena[start:end]
}

// get returns the dense group index for the encoded key, inserting on first
// sight. isNew tells the caller to append the group's key values.
func (t *flatAggTable) get(enc []byte) (g int32, isNew bool) {
	h := kernel.HashBytes(enc)
	i := uint32(h) & t.mask
	for {
		s := t.slots[i]
		if s == 0 {
			return t.insert(enc, h, i), true
		}
		gi := int32(s - 1)
		if t.hashes[gi] == h && bytes.Equal(t.keyBytes(gi), enc) {
			return gi, false
		}
		i = (i + 1) & t.mask
	}
}

func (t *flatAggTable) insert(enc []byte, h uint64, slot uint32) int32 {
	g := int32(t.n)
	t.n++
	t.slots[slot] = uint32(g) + 1
	t.hashes = append(t.hashes, h)
	t.keyOff = append(t.keyOff, len(t.arena))
	t.arena = append(t.arena, enc...)
	for i := range t.cols {
		c := &t.cols[i]
		sp := t.specs[i]
		c.sumF = append(c.sumF, 0)
		c.sumI = append(c.sumI, 0)
		c.count = append(c.count, 0)
		if sp.Func == plan.AggMin || sp.Func == plan.AggMax {
			c.minmax = append(c.minmax, vector.Value{})
		}
		if sp.Distinct {
			c.distinct = append(c.distinct, make(map[vector.Value]struct{}, distinctMapSizeHint))
		}
	}
	if t.n*4 > len(t.slots)*3 {
		t.grow()
	}
	return g
}

func (t *flatAggTable) grow() {
	ns := make([]uint32, len(t.slots)*2)
	mask := uint32(len(ns) - 1)
	for g := 0; g < t.n; g++ {
		i := uint32(t.hashes[g]) & mask
		for ns[i] != 0 {
			i = (i + 1) & mask
		}
		ns[i] = uint32(g) + 1
	}
	t.slots = ns
	t.mask = mask
}

// updateBoxed folds one boxed value into group g for spec i: the one path for
// DISTINCT, MIN and MAX, which compare or hash whole values; SUM, AVG and
// COUNT reach it only over a type without a grouped-update kernel.
func (t *flatAggTable) updateBoxed(i int, sp plan.AggSpec, g int32, v vector.Value) {
	c := &t.cols[i]
	if sp.Func == plan.AggCountStar {
		c.count[g]++
		return
	}
	if v.Null {
		return // SQL aggregates ignore NULLs
	}
	if sp.Distinct {
		if _, seen := c.distinct[g][v]; seen {
			return
		}
		c.distinct[g][v] = struct{}{}
	}
	switch sp.Func {
	case plan.AggSum, plan.AggAvg:
		c.count[g]++
		if v.Type == vector.TypeFloat64 {
			c.sumF[g] += v.F
		} else {
			c.sumI[g] += v.I
			c.sumF[g] += float64(v.I)
		}
	case plan.AggCount:
		c.count[g]++
	case plan.AggMin:
		if c.minmax[g].Type == vector.TypeInvalid || v.Compare(c.minmax[g]) < 0 {
			c.minmax[g] = v
		}
	case plan.AggMax:
		if c.minmax[g].Type == vector.TypeInvalid || v.Compare(c.minmax[g]) > 0 {
			c.minmax[g] = v
		}
	}
}

// mergeFrom folds group sg of src into group dg.
func (t *flatAggTable) mergeFrom(src *flatAggTable, dg, sg int32) {
	for i, sp := range t.specs {
		dc, sc := &t.cols[i], &src.cols[i]
		if sp.Distinct {
			dm := dc.distinct[dg]
			for v := range sc.distinct[sg] {
				if _, seen := dm[v]; !seen {
					dm[v] = struct{}{}
					dc.count[dg]++ // recounted below for count-distinct finalize
				}
			}
			continue
		}
		switch sp.Func {
		case plan.AggSum, plan.AggAvg:
			dc.count[dg] += sc.count[sg]
			dc.sumF[dg] += sc.sumF[sg]
			dc.sumI[dg] += sc.sumI[sg]
		case plan.AggCount, plan.AggCountStar:
			dc.count[dg] += sc.count[sg]
		case plan.AggMin:
			if sc.minmax[sg].Type != vector.TypeInvalid && (dc.minmax[dg].Type == vector.TypeInvalid || sc.minmax[sg].Compare(dc.minmax[dg]) < 0) {
				dc.minmax[dg] = sc.minmax[sg]
			}
		case plan.AggMax:
			if sc.minmax[sg].Type != vector.TypeInvalid && (dc.minmax[dg].Type == vector.TypeInvalid || sc.minmax[sg].Compare(dc.minmax[dg]) > 0) {
				dc.minmax[dg] = sc.minmax[sg]
			}
		}
	}
}

// merge folds every group of src into t, appending src's unseen groups in
// its first-seen order. src's arena key bytes are the probe keys: no
// re-encoding.
func (t *flatAggTable) merge(src *flatAggTable) {
	for g := int32(0); int(g) < src.n; g++ {
		dg, isNew := t.get(src.keyBytes(g))
		if isNew {
			for j, k := range t.keys {
				k.AppendFrom(src.keys[j], int(g))
			}
		}
		t.mergeFrom(src, dg, g)
	}
}

// appendResults appends the final value of spec i for groups [lo, hi) to
// dst, one loop per aggregate. DISTINCT (its set size as a BIGINT value,
// whatever the spec's result type) and MIN/MAX (boxed state) go through
// AppendValue; the rest write typed.
func (t *flatAggTable) appendResults(dst *vector.Vector, i int, sp plan.AggSpec, lo, hi int) {
	c := &t.cols[i]
	switch {
	case sp.Distinct:
		for g := lo; g < hi; g++ {
			dst.AppendValue(vector.NewInt64(int64(len(c.distinct[g]))))
		}
	case sp.Func == plan.AggCount || sp.Func == plan.AggCountStar:
		for _, n := range c.count[lo:hi] {
			dst.AppendInt64(n)
		}
	case sp.Func == plan.AggAvg:
		for g := lo; g < hi; g++ {
			if c.count[g] == 0 {
				dst.AppendNull()
			} else {
				dst.AppendFloat64(c.sumF[g] / float64(c.count[g]))
			}
		}
	case sp.Func == plan.AggSum && sp.ResultType() == vector.TypeFloat64:
		for g := lo; g < hi; g++ {
			if c.count[g] == 0 {
				dst.AppendNull()
			} else {
				dst.AppendFloat64(c.sumF[g])
			}
		}
	case sp.Func == plan.AggSum:
		for g := lo; g < hi; g++ {
			if c.count[g] == 0 {
				dst.AppendNull()
			} else {
				dst.AppendInt64(c.sumI[g])
			}
		}
	default: // min/max
		for _, v := range c.minmax[lo:hi] {
			if v.Type == vector.TypeInvalid {
				dst.AppendNull()
			} else {
				dst.AppendValue(v)
			}
		}
	}
}

// memBytes estimates 64 bytes per group plus 64 per state plus 64 per
// distinct value, for the executor's memory-based checkpoint cost model.
func (t *flatAggTable) memBytes() int64 {
	b := int64(t.n) * int64(64+64*len(t.specs))
	for i := range t.cols {
		for _, m := range t.cols[i].distinct {
			b += int64(len(m)) * 64
		}
	}
	return b
}

// FlatAggSink is the pipeline breaker for hash aggregation. At Combine the
// first worker-local flatAggTable becomes the global table and the others
// merge into it; Finalize materializes the groups into a row buffer
// scannable by the next pipeline — the "global state" of the paper's Fig. 3.
// Group-by and argument expressions run as compiled programs, group probes
// allocate nothing, and SUM/COUNT folds run as generated grouped-update
// kernels over raw slices. SaveLocal writes the v2 aggregate state format
// (saveTable).
type FlatAggSink struct {
	specs    []plan.AggSpec
	outTypes []vector.Type

	groupProgs []*expr.Program
	argProgs   []*expr.Program // nil where the spec takes no argument: COUNT(*)

	global *flatAggTable
	buf    *RowBuffer
	final  bool

	localPool sync.Pool // *flatAggLocal recycled at Combine
}

// NewFlatAggSink builds the sink. outTypes is groupTypes ++ aggregate result
// types (matching plan.Aggregate's schema).
func NewFlatAggSink(groupBy []expr.Expr, specs []plan.AggSpec, outTypes []vector.Type) (*FlatAggSink, error) {
	groupProgs, err := compilePrograms(groupBy)
	if err != nil {
		return nil, err
	}
	args := make([]expr.Expr, len(specs))
	for i, sp := range specs {
		args[i] = sp.Arg
	}
	argProgs, err := compilePrograms(args)
	if err != nil {
		return nil, err
	}
	return &FlatAggSink{
		specs:      specs,
		outTypes:   outTypes,
		groupProgs: groupProgs,
		argProgs:   argProgs,
		global:     newFlatAggTable(specs, outTypes[:len(groupBy)]),
	}, nil
}

// keyTypes returns the group-by columns' types.
func (s *FlatAggSink) keyTypes() []vector.Type { return s.outTypes[:len(s.groupProgs)] }

type flatAggLocal struct {
	table      *flatAggTable
	keyBuf     []byte
	rowGroups  []int32
	groupVecs  []*vector.Vector
	argVecs    []*vector.Vector
	groupInsts []*expr.Instance
	argInsts   []*expr.Instance // nil where argProgs is
}

func (s *FlatAggSink) newLocal(t *flatAggTable) *flatAggLocal {
	return &flatAggLocal{
		table:      t,
		groupVecs:  make([]*vector.Vector, len(s.groupProgs)),
		argVecs:    make([]*vector.Vector, len(s.argProgs)),
		groupInsts: newInstances(s.groupProgs),
		argInsts:   newInstances(s.argProgs),
	}
}

// MakeLocal implements Sink. Locals are recycled through a pool: Combine is
// called exactly once per local (scheduler finalize), after which the tables'
// arrays are dead weight the next worker generation can reuse.
func (s *FlatAggSink) MakeLocal() LocalState {
	if l, ok := s.localPool.Get().(*flatAggLocal); ok && l != nil {
		l.table.reset()
		return l
	}
	return s.newLocal(newFlatAggTable(s.specs, s.keyTypes()))
}

// Consume implements Sink.
func (s *FlatAggSink) Consume(ls LocalState, c *vector.Chunk) error {
	l := ls.(*flatAggLocal)
	n := c.Len()
	if n == 0 {
		return nil
	}
	groupVecs, argVecs := l.groupVecs, l.argVecs
	if err := evalInstances(l.groupInsts, c, groupVecs); err != nil {
		return err
	}
	if err := evalInstances(l.argInsts, c, argVecs); err != nil {
		return err
	}

	// Locate (or create) each row's group: no closures, no boxing. A new
	// group's key values are appended raw, so a first-seen -0.0 stays -0.0
	// while the key encoding canonicalizes it.
	if cap(l.rowGroups) < n {
		l.rowGroups = make([]int32, n)
	}
	rowGroups := l.rowGroups[:n]
	t := l.table
	keyBuf := l.keyBuf
	for r := 0; r < n; r++ {
		keyBuf = encodeKeyFromVecs(keyBuf[:0], groupVecs, r)
		g, isNew := t.get(keyBuf)
		if isNew {
			for j, gv := range groupVecs {
				t.keys[j].AppendFrom(gv, r)
			}
		}
		rowGroups[r] = g
	}
	l.keyBuf = keyBuf

	// Fold each aggregate with a generated grouped-update kernel where one
	// exists; boxed per-row updates otherwise.
	for i, sp := range s.specs {
		av := argVecs[i]
		col := &t.cols[i]
		switch {
		case sp.Func == plan.AggCountStar:
			kernel.CountUpdate(rowGroups, col.count)
		case sp.Distinct || sp.Func == plan.AggMin || sp.Func == plan.AggMax:
			for r := 0; r < n; r++ {
				t.updateBoxed(i, sp, rowGroups[r], av.Value(r))
			}
		case sp.Func == plan.AggCount:
			if av.HasNulls() {
				kernel.CountUpdateNulls(rowGroups, av.NullWords(), col.count)
			} else {
				kernel.CountUpdate(rowGroups, col.count)
			}
		case av.Type() == vector.TypeFloat64: // sum/avg over doubles
			if av.HasNulls() {
				kernel.SumFloat64UpdateNulls(rowGroups, av.Float64s(), av.NullWords(), col.sumF, col.count)
			} else {
				kernel.SumFloat64Update(rowGroups, av.Float64s(), col.sumF, col.count)
			}
		case av.Type() == vector.TypeInt64 || av.Type() == vector.TypeDate:
			if av.HasNulls() {
				kernel.SumInt64UpdateNulls(rowGroups, av.Int64s(), av.NullWords(), col.sumI, col.sumF, col.count)
			} else {
				kernel.SumInt64Update(rowGroups, av.Int64s(), col.sumI, col.sumF, col.count)
			}
		default:
			for r := 0; r < n; r++ {
				t.updateBoxed(i, sp, rowGroups[r], av.Value(r))
			}
		}
	}
	return nil
}

// Combine implements Sink. While the global table is empty, the local's
// table becomes the global one: merging into an empty table would rebuild
// it exactly (0 + a == a, and the groups keep their first-seen order), so
// the first local is adopted, not copied, and is never recycled. Later
// locals merge in and are recycled into the pool; that is safe because the
// scheduler calls Combine exactly once per local and only snapshots
// (SaveLocal) locals of still-inflight pipelines.
func (s *FlatAggSink) Combine(ls LocalState) error {
	l := ls.(*flatAggLocal)
	if s.global.n == 0 {
		s.global = l.table
		return nil
	}
	s.global.merge(l.table)
	s.localPool.Put(l)
	return nil
}

// Finalize implements Sink. It fills the output one chunk at a time, column
// by column: key columns by range copy, then each aggregate in one loop.
func (s *FlatAggSink) Finalize() error {
	t := s.global
	if len(t.keys) == 0 && t.n == 0 {
		// Global aggregation over zero rows still yields one row.
		t.get(nil)
	}
	s.buf = NewRowBuffer(s.outTypes)
	for lo := 0; lo < t.n; lo += vector.ChunkCapacity {
		hi := min(lo+vector.ChunkCapacity, t.n)
		c := s.buf.tail() // a fresh chunk: every earlier one is full
		for j, k := range t.keys {
			c.Col(j).AppendRange(k, lo, hi)
		}
		for i, sp := range s.specs {
			t.appendResults(c.Col(len(t.keys)+i), i, sp, lo, hi)
		}
		c.SetLen(hi - lo)
		s.buf.rows += int64(hi - lo)
	}
	s.final = true
	return nil
}

// Buffer implements BufferedSink.
func (s *FlatAggSink) Buffer() *RowBuffer { return s.buf }

// NumGroups returns the current number of global groups.
func (s *FlatAggSink) NumGroups() int { return s.global.n }

// saveTable writes a table in the v2 aggregate state format: per group, in
// first-seen order, the boxed key values then, per spec, the four scalar
// state fields and the distinct set. Fields a spec never touches are written
// as their zero values.
func (s *FlatAggSink) saveTable(enc *vector.Encoder, t *flatAggTable) {
	enc.Uvarint(uint64(t.n))
	for g := int32(0); int(g) < t.n; g++ {
		for _, k := range t.keys {
			enc.Value(k.Value(int(g)))
		}
		for i, sp := range s.specs {
			c := &t.cols[i]
			enc.Float64(c.sumF[g])
			enc.Varint(c.sumI[g])
			enc.Varint(c.count[g])
			if c.minmax != nil {
				enc.Value(c.minmax[g])
			} else {
				enc.Value(vector.Value{})
			}
			if sp.Distinct {
				enc.Bool(true)
				enc.Uvarint(uint64(len(c.distinct[g])))
				for v := range c.distinct[g] {
					enc.Value(v)
				}
			} else {
				enc.Bool(false)
			}
		}
	}
}

func (s *FlatAggSink) loadTable(dec *vector.Decoder) (*flatAggTable, error) {
	t := newFlatAggTable(s.specs, s.keyTypes())
	n := int(dec.Uvarint())
	if err := dec.Err(); err != nil {
		return nil, err
	}
	var keyBuf []byte
	for r := 0; r < n; r++ {
		for _, k := range t.keys {
			k.AppendValue(dec.Value())
		}
		keyBuf = encodeKeyFromVecs(keyBuf[:0], t.keys, r)
		g, isNew := t.get(keyBuf)
		if !isNew {
			// The key columns now hold one row more than the table has
			// groups; a saved table never repeats a key.
			if err := dec.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("aggregate state: group %d repeats an earlier key", r)
		}
		for i, sp := range s.specs {
			c := &t.cols[i]
			c.sumF[g] = dec.Float64()
			c.sumI[g] = dec.Varint()
			c.count[g] = dec.Varint()
			mm := dec.Value()
			if c.minmax != nil {
				c.minmax[g] = mm
			}
			if dec.Bool() {
				cnt := int(dec.Uvarint())
				m := make(map[vector.Value]struct{}, cnt)
				for k := 0; k < cnt; k++ {
					m[dec.Value()] = struct{}{}
				}
				if sp.Distinct {
					c.distinct[g] = m
				}
			}
		}
	}
	return t, dec.Err()
}

// SaveGlobal implements Sink. After finalize the scannable buffer is the
// state.
func (s *FlatAggSink) SaveGlobal(enc *vector.Encoder) error {
	s.buf.Save(enc)
	return enc.Err()
}

// LoadGlobal implements Sink.
func (s *FlatAggSink) LoadGlobal(dec *vector.Decoder) error {
	buf, err := LoadRowBuffer(dec)
	if err != nil {
		return err
	}
	s.buf = buf
	s.final = true
	return nil
}

// SaveLocal implements Sink.
func (s *FlatAggSink) SaveLocal(ls LocalState, enc *vector.Encoder) error {
	s.saveTable(enc, ls.(*flatAggLocal).table)
	return enc.Err()
}

// LoadLocal implements Sink.
func (s *FlatAggSink) LoadLocal(dec *vector.Decoder) (LocalState, error) {
	t, err := s.loadTable(dec)
	if err != nil {
		return nil, err
	}
	return s.newLocal(t), nil
}

// MemBytes implements Sink.
func (s *FlatAggSink) MemBytes() int64 {
	b := s.global.memBytes()
	if s.buf != nil {
		b += s.buf.MemBytes()
	}
	return b
}

// LocalMemBytes implements Sink.
func (s *FlatAggSink) LocalMemBytes(ls LocalState) int64 {
	return ls.(*flatAggLocal).table.memBytes()
}
