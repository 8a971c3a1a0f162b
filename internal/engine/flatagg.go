package engine

import (
	"bytes"
	"sync"

	"github.com/riveterdb/riveter/internal/engine/kernel"
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

// flatAggTable is the aggregate hash table, open-addressed. Encoded group
// keys live back-to-back in one byte arena addressed by offset, the
// per-group accumulators live in struct-of-arrays columns (one aggCol per
// aggregate spec), and the probe path is FNV hash + linear scan over a
// power-of-two slot array, so a probe allocates nothing. Group indices are
// dense and assigned in first-seen order, which is also the output and the
// checkpoint order.
type flatAggTable struct {
	specs    []plan.AggSpec
	nGroupBy int

	slots  []uint32 // group index + 1; 0 = empty
	mask   uint32
	hashes []uint64 // per group, for rehash and cheap probe rejection
	keyOff []int    // arena start offset per group; end = next start or len
	arena  []byte
	keys   []vector.Value // boxed key values, nGroupBy per group (save/finalize)
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

func newFlatAggTable(specs []plan.AggSpec, nGroupBy int) *flatAggTable {
	return &flatAggTable{
		specs:    specs,
		nGroupBy: nGroupBy,
		slots:    make([]uint32, flatAggInitSlots),
		mask:     flatAggInitSlots - 1,
		cols:     make([]aggCol, len(specs)),
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
	t.keys = t.keys[:0]
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
// sight. isNew tells the caller to record the group's boxed key values.
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

// groupKeys returns group g's boxed key values.
func (t *flatAggTable) groupKeys(g int32) []vector.Value {
	return t.keys[int(g)*t.nGroupBy : (int(g)+1)*t.nGroupBy]
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

// result produces the final value of spec i for group g.
func (t *flatAggTable) result(i int, sp plan.AggSpec, g int32) vector.Value {
	c := &t.cols[i]
	if sp.Distinct {
		return vector.NewInt64(int64(len(c.distinct[g])))
	}
	switch sp.Func {
	case plan.AggCount, plan.AggCountStar:
		return vector.NewInt64(c.count[g])
	case plan.AggAvg:
		if c.count[g] == 0 {
			return vector.NewNull(vector.TypeFloat64)
		}
		return vector.NewFloat64(c.sumF[g] / float64(c.count[g]))
	case plan.AggSum:
		if c.count[g] == 0 {
			return vector.NewNull(sp.ResultType())
		}
		if sp.ResultType() == vector.TypeFloat64 {
			return vector.NewFloat64(c.sumF[g])
		}
		return vector.NewInt64(c.sumI[g])
	default: // min/max
		if c.minmax[g].Type == vector.TypeInvalid {
			return vector.NewNull(sp.ResultType())
		}
		return c.minmax[g]
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

// FlatAggSink is the pipeline breaker for hash aggregation. Worker-local
// flatAggTables are merged into the global table at Combine; Finalize
// materializes the groups into a row buffer scannable by the next pipeline —
// the "global state" of the paper's Fig. 3. Group-by and argument
// expressions run as compiled programs, group probes allocate nothing, and
// SUM/COUNT folds run as generated grouped-update kernels over raw slices.
// SaveLocal writes the v2 aggregate state format (saveTable).
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
		global:     newFlatAggTable(specs, len(groupBy)),
	}, nil
}

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
	return s.newLocal(newFlatAggTable(s.specs, len(s.groupProgs)))
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

	// Locate (or create) each row's group: no closures, no boxing except for
	// the first sight of a new group's key values.
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
			for _, gv := range groupVecs {
				t.keys = append(t.keys, gv.Value(r))
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

// Combine implements Sink. The local's arena key bytes are reused directly as
// probe keys into the global table — no re-encoding, no boxing. The local is
// recycled into the pool afterwards; that is safe because the scheduler calls
// Combine exactly once per local and only snapshots (SaveLocal) locals of
// still-inflight pipelines.
func (s *FlatAggSink) Combine(ls LocalState) error {
	l := ls.(*flatAggLocal)
	lt := l.table
	for g := int32(0); int(g) < lt.n; g++ {
		gg, isNew := s.global.get(lt.keyBytes(g))
		if isNew {
			s.global.keys = append(s.global.keys, lt.groupKeys(g)...)
		}
		s.global.mergeFrom(lt, gg, g)
	}
	s.localPool.Put(l)
	return nil
}

// Finalize implements Sink.
func (s *FlatAggSink) Finalize() error {
	s.buf = NewRowBuffer(s.outTypes)
	if len(s.groupProgs) == 0 && s.global.n == 0 {
		// Global aggregation over zero rows still yields one row.
		s.global.get(nil)
	}
	row := make([]vector.Value, 0, len(s.outTypes))
	for g := int32(0); int(g) < s.global.n; g++ {
		row = row[:0]
		row = append(row, s.global.groupKeys(g)...)
		for i, sp := range s.specs {
			row = append(row, s.global.result(i, sp, g))
		}
		s.buf.AppendRowValues(row...)
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
		for _, kv := range t.groupKeys(g) {
			enc.Value(kv)
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
	t := newFlatAggTable(s.specs, len(s.groupProgs))
	n := int(dec.Uvarint())
	if err := dec.Err(); err != nil {
		return nil, err
	}
	var keyBuf []byte
	key := make([]vector.Value, t.nGroupBy)
	for r := 0; r < n; r++ {
		for i := range key {
			key[i] = dec.Value()
		}
		keyBuf = encodeKeyFromValues(keyBuf[:0], key)
		g, isNew := t.get(keyBuf)
		if isNew {
			t.keys = append(t.keys, key...)
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
