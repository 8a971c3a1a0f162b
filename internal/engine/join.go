package engine

import (
	"fmt"
	"sync"

	"github.com/riveterdb/riveter/internal/engine/kernel"
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

// HashJoinBuildSink is the pipeline breaker that materializes the build
// (right) side of a hash join. The buffered rows are laid out as the key
// columns followed by the full build-side payload; the bucket index maps key
// hashes to row ids and is rebuilt from the buffer on load, so checkpoints
// persist only the rows — exactly the "entire hash table for the join" the
// paper measures for join-ending pipelines (Fig. 8).
type HashJoinBuildSink struct {
	keyProgs []*expr.Program // over the build input schema
	keyTypes []vector.Type
	payTypes []vector.Type
	rowTypes []vector.Type // keyTypes ++ payTypes

	buf   *RowBuffer
	index joinIndex
	final bool
}

// joinIndex is the probe-side hash index over the build buffer: a flat
// chained-bucket layout. heads maps a power-of-two slot to its first row,
// and entries holds each row's key hash (a cheap prefilter before the real
// key comparison) beside its chain link, so a chain step reads one cache
// line. Row ids are stored plus one, so the zero that make fills in ends a
// chain. cols views every buffer column chunk by chunk, for the key
// comparison and the probe's bulk gather of payload columns. The index is
// rebuilt from the row buffer on finalize and on checkpoint load, so it
// never appears in the persisted state.
type joinIndex struct {
	mask    uint64
	heads   []int64 // slot -> first row id + 1, 0 when empty
	entries []joinEntry
	cols    []chunkedCol // keys, then payload
}

// joinEntry is one build row's slot in the index.
type joinEntry struct {
	hash uint64
	next int64 // next row id + 1 in the chain, 0 at its end
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

// NewHashJoinBuildSink builds the sink for the given key expressions and
// build-side input types.
func NewHashJoinBuildSink(keys []expr.Expr, inTypes []vector.Type) (*HashJoinBuildSink, error) {
	progs, err := compilePrograms(keys)
	if err != nil {
		return nil, err
	}
	kt := make([]vector.Type, len(keys))
	for i, k := range keys {
		kt[i] = k.Type()
	}
	rt := append(append([]vector.Type{}, kt...), inTypes...)
	return &HashJoinBuildSink{
		keyProgs: progs,
		keyTypes: kt,
		payTypes: inTypes,
		rowTypes: rt,
		buf:      NewRowBuffer(rt),
	}, nil
}

type joinBuildLocal struct {
	buf      *RowBuffer
	keyInsts []*expr.Instance
	// keyVecs and rowCols are per-chunk scratch for evaluated key vectors
	// and the key++payload column layout; worker-local, so plain reuse is
	// race-free.
	keyVecs []*vector.Vector
	rowCols []*vector.Vector
}

func (s *HashJoinBuildSink) newLocal(buf *RowBuffer) *joinBuildLocal {
	return &joinBuildLocal{buf: buf, keyInsts: newInstances(s.keyProgs), keyVecs: make([]*vector.Vector, len(s.keyProgs))}
}

// MakeLocal implements Sink.
func (s *HashJoinBuildSink) MakeLocal() LocalState { return s.newLocal(NewRowBuffer(s.rowTypes)) }

// Consume implements Sink.
func (s *HashJoinBuildSink) Consume(ls LocalState, c *vector.Chunk) error {
	l := ls.(*joinBuildLocal)
	if err := evalInstances(l.keyInsts, c, l.keyVecs); err != nil {
		return err
	}
	// Lay out key columns then payload columns and bulk-append the whole
	// chunk; AppendRange copies, so aliasing key vectors to input columns
	// (a bare column-reference key) is fine.
	l.rowCols = l.rowCols[:0]
	l.rowCols = append(l.rowCols, l.keyVecs...)
	l.rowCols = append(l.rowCols, c.Cols()...)
	l.buf.appendVectors(l.rowCols, c.Len())
	return nil
}

// Combine implements Sink.
func (s *HashJoinBuildSink) Combine(ls LocalState) error {
	s.buf.Concat(ls.(*joinBuildLocal).buf)
	return nil
}

// Finalize implements Sink.
func (s *HashJoinBuildSink) Finalize() error {
	s.rebuildBuckets()
	s.final = true
	return nil
}

func (s *HashJoinBuildSink) rebuildBuckets() {
	nk := len(s.keyTypes)
	rows := s.buf.Rows()
	s.index = joinIndex{cols: chunkedCols(s.buf)}
	if nk == 0 || rows == 0 {
		return // cross join: no index, every row matches
	}
	slots := uint64(1)
	for slots < uint64(rows) {
		slots <<= 1
	}
	idx := &s.index
	idx.mask = slots - 1
	idx.heads = make([]int64, slots)
	idx.entries = make([]joinEntry, rows)
	// Hash each chunk's keys straight into its entries and chain its rows
	// under their slots. Walking the rows in descending order yields
	// ascending chains, so matches come out in build-row order. Rows with a
	// NULL key stay out of the chains: under SQL equality they never match.
	hashes := make([]uint64, min(rows, vector.ChunkCapacity))
	for ci := s.buf.NumChunks() - 1; ci >= 0; ci-- {
		c := s.buf.Chunk(ci)
		h := hashes[:c.Len()]
		clear(h)
		hasNulls := false
		for k := 0; k < nk; k++ {
			c.Col(k).HashInto(h)
			hasNulls = hasNulls || c.Col(k).HasNulls()
		}
		base := int64(ci) << vector.ChunkShift
		for i := len(h) - 1; i >= 0; i-- {
			e := &idx.entries[base+int64(i)]
			e.hash = h[i]
			if hasNulls && rowHasNullKey(c, nk, i) {
				continue
			}
			slot := e.hash & idx.mask
			e.next = idx.heads[slot]
			idx.heads[slot] = base + int64(i) + 1
		}
	}
}

func rowHasNullKey(c *vector.Chunk, nk, i int) bool {
	for k := 0; k < nk; k++ {
		if c.Col(k).IsNull(i) {
			return true
		}
	}
	return false
}

// NumKeys returns the number of equi-join keys.
func (s *HashJoinBuildSink) NumKeys() int { return len(s.keyTypes) }

// Rows returns the number of buffered build rows.
func (s *HashJoinBuildSink) Rows() int64 { return s.buf.Rows() }

// SaveGlobal implements Sink.
func (s *HashJoinBuildSink) SaveGlobal(enc *vector.Encoder) error {
	s.buf.Save(enc)
	return enc.Err()
}

// LoadGlobal implements Sink.
func (s *HashJoinBuildSink) LoadGlobal(dec *vector.Decoder) error {
	buf, err := LoadRowBuffer(dec)
	if err != nil {
		return err
	}
	s.buf = buf
	s.rebuildBuckets()
	s.final = true
	return nil
}

// SaveLocal implements Sink.
func (s *HashJoinBuildSink) SaveLocal(ls LocalState, enc *vector.Encoder) error {
	ls.(*joinBuildLocal).buf.Save(enc)
	return enc.Err()
}

// LoadLocal implements Sink.
func (s *HashJoinBuildSink) LoadLocal(dec *vector.Decoder) (LocalState, error) {
	buf, err := LoadRowBuffer(dec)
	if err != nil {
		return nil, err
	}
	return s.newLocal(buf), nil
}

// MemBytes implements Sink.
func (s *HashJoinBuildSink) MemBytes() int64 {
	b := s.buf.MemBytes()
	b += int64(len(s.index.heads))*8 + int64(len(s.index.entries))*16
	return b
}

// LocalMemBytes implements Sink.
func (s *HashJoinBuildSink) LocalMemBytes(ls LocalState) int64 {
	return ls.(*joinBuildLocal).buf.MemBytes()
}

// HashJoinProbeOp is the streaming probe operator. It reads the immutable
// finalized state of its build sink and therefore carries no per-worker
// state of its own.
type HashJoinProbeOp struct {
	Type     plan.JoinType
	build    *HashJoinBuildSink
	keyProgs []*expr.Program // over the probe input schema
	extra    *expr.Program   // over probe ++ build payload; may be nil

	probeTypes []vector.Type
	outTypes   []vector.Type
	pairTypes  []vector.Type // probeTypes ++ build payload types

	// scratch pools per-worker probe state (the operator instance is shared
	// by all workers of the pipeline). See StreamOp for why reusing emitted
	// chunks is sound.
	scratch sync.Pool
}

// probeScratch is the reusable per-Process working set of a probe.
type probeScratch struct {
	keyInsts []*expr.Instance
	extra    *expr.Instance // nil without a residual predicate
	keyVecs  []*vector.Vector
	hashes   []uint64 // per probe row: its key hash, then its first candidate
	matched  []bool   // per probe row; only when tracksMatches
	// probeRows and buildRows are the pending matches, one pair per index:
	// the probe row and the build row id. Sized once at ChunkCapacity, the
	// point where they flush.
	probeRows []int32
	buildRows []int64
	sel       []int32       // residual survivors, or the tail's rows
	pair      *vector.Chunk // the pending matches as probe++payload rows
	filtered  *vector.Chunk // pair rows surviving the extra predicate
	tail      *vector.Chunk // left-outer padding / semi-anti output
}

// getScratch returns a scratch sized for an n-row probe chunk.
func (p *HashJoinProbeOp) getScratch(n int) *probeScratch {
	s, _ := p.scratch.Get().(*probeScratch)
	if s == nil {
		s = &probeScratch{
			keyInsts:  newInstances(p.keyProgs),
			keyVecs:   make([]*vector.Vector, len(p.keyProgs)),
			probeRows: make([]int32, 0, vector.ChunkCapacity),
			buildRows: make([]int64, 0, vector.ChunkCapacity),
			pair:      vector.NewChunk(p.pairTypes),
		}
		if p.extra != nil || p.tracksMatches() {
			s.sel = make([]int32, 0, vector.ChunkCapacity)
		}
		if p.extra != nil {
			s.extra = p.extra.NewInstance()
			s.filtered = vector.NewChunk(p.pairTypes)
		}
		switch p.Type {
		case plan.LeftOuterJoin:
			s.tail = vector.NewChunk(p.pairTypes)
		case plan.SemiJoin, plan.AntiJoin:
			s.tail = vector.NewChunk(p.probeTypes)
		}
	}
	if cap(s.hashes) < n {
		s.hashes = make([]uint64, n)
	}
	s.hashes = s.hashes[:n]
	clear(s.hashes)
	if p.tracksMatches() {
		if cap(s.matched) < n {
			s.matched = make([]bool, n)
		}
		s.matched = s.matched[:n]
		clear(s.matched)
	}
	return s
}

// tracksMatches reports whether the join's output depends on which probe
// rows matched: left-outer, semi and anti joins.
func (p *HashJoinProbeOp) tracksMatches() bool {
	return p.Type != plan.InnerJoin && p.Type != plan.CrossJoin
}

// NewHashJoinProbeOp builds the probe operator. extra, the residual
// predicate over probe ++ build payload columns, may be nil.
func NewHashJoinProbeOp(jt plan.JoinType, build *HashJoinBuildSink, keys []expr.Expr, extra expr.Expr, probeTypes []vector.Type) (*HashJoinProbeOp, error) {
	keyProgs, err := compilePrograms(keys)
	if err != nil {
		return nil, err
	}
	var extraProg *expr.Program
	if extra != nil {
		if extraProg, err = compilePredicate(extra); err != nil {
			return nil, err
		}
	}
	pair := append(append([]vector.Type{}, probeTypes...), build.payTypes...)
	out := pair
	if jt == plan.SemiJoin || jt == plan.AntiJoin {
		out = probeTypes
	}
	return &HashJoinProbeOp{
		Type:       jt,
		build:      build,
		keyProgs:   keyProgs,
		extra:      extraProg,
		probeTypes: probeTypes,
		outTypes:   out,
		pairTypes:  pair,
	}, nil
}

// OutTypes implements StreamOp.
func (p *HashJoinProbeOp) OutTypes() []vector.Type { return p.outTypes }

// Process implements StreamOp. The chain walk only collects matches; at
// every ChunkCapacity matches and at the end of the chunk, flush builds the
// pair rows column by column with typed gathers.
func (p *HashJoinProbeOp) Process(in *vector.Chunk, emit func(*vector.Chunk) error) error {
	if !p.build.final {
		return fmt.Errorf("hash join probe before build finalize")
	}
	n := in.Len()
	if n == 0 {
		return nil
	}
	// Evaluate and hash the probe keys.
	s := p.getScratch(n)
	defer p.scratch.Put(s)
	keyVecs := s.keyVecs
	if err := evalInstances(s.keyInsts, in, keyVecs); err != nil {
		return err
	}
	hashes := s.hashes
	nullKeys := false
	for _, kv := range keyVecs {
		kv.HashInto(hashes)
		nullKeys = nullKeys || kv.HasNulls()
	}

	addMatch := func(i int, r int64) error {
		s.probeRows = append(s.probeRows, int32(i))
		s.buildRows = append(s.buildRows, r)
		if len(s.probeRows) == vector.ChunkCapacity {
			return p.flush(s, in, emit)
		}
		return nil
	}
	idx := &p.build.index
	if len(p.keyProgs) == 0 {
		// Cross join: every build row pairs with every probe row.
		for i := 0; i < n; i++ {
			for r := int64(0); r < p.build.buf.Rows(); r++ {
				if err := addMatch(i, r); err != nil {
					return err
				}
			}
		}
	} else if idx.heads != nil { // an empty build side matches nothing
		// Without a residual predicate, the first match decides a semi or
		// anti join's row.
		firstOnly := s.extra == nil && (p.Type == plan.SemiJoin || p.Type == plan.AntiJoin)
		heads, entries, mask := idx.heads, idx.entries, idx.mask
		// Replace every row's hash by its first candidate, the first entry
		// of its chain with the same hash (0 for none), before walking any
		// chain: the rows' lookups are independent, so their cache misses
		// overlap instead of queueing one behind the other.
		for i, h := range hashes {
			e := heads[h&mask]
			for e != 0 && entries[e-1].hash != h {
				e = entries[e-1].next
			}
			hashes[i] = uint64(e)
		}
		for i, first := range hashes {
			e := int64(first)
			if e == 0 || nullKeys && probeRowHasNullKey(keyVecs, i) {
				continue // no candidate, or a NULL key, which never matches
			}
			h := entries[e-1].hash
			for e != 0 {
				r := e - 1
				e = entries[r].next
				if entries[r].hash != h || !idx.keysEqual(keyVecs, i, r) {
					continue
				}
				if firstOnly {
					s.matched[i] = true
					break
				}
				if err := addMatch(i, r); err != nil {
					return err
				}
			}
		}
	}
	if err := p.flush(s, in, emit); err != nil {
		return err
	}

	switch p.Type {
	case plan.LeftOuterJoin:
		// Emit unmatched probe rows padded with NULL build columns.
		s.sel = selectMatched(s.matched, false, s.sel)
		sel := s.sel
		if len(sel) == 0 {
			return nil
		}
		np := in.NumCols()
		gatherCols(s.tail.Cols()[:np], in.Cols(), sel)
		for _, v := range s.tail.Cols()[np:] {
			padNull(v, len(sel))
		}
		s.tail.SetLen(len(sel))
		return emit(s.tail)
	case plan.SemiJoin, plan.AntiJoin:
		s.sel = selectMatched(s.matched, p.Type == plan.SemiJoin, s.sel)
		sel := s.sel
		switch len(sel) {
		case 0:
			return nil
		case n:
			return emit(in)
		}
		gatherChunk(s.tail, in, sel)
		return emit(s.tail)
	}
	return nil
}

// flush turns the pending matches into pair rows: probe columns gathered
// from in, payload columns from the build buffer. It applies the residual
// predicate, marks the matched probe rows, and emits the surviving pairs of
// the joins that output them.
func (p *HashJoinProbeOp) flush(s *probeScratch, in *vector.Chunk, emit func(*vector.Chunk) error) error {
	probeRows, buildRows := s.probeRows, s.buildRows
	m := len(probeRows)
	if m == 0 {
		return nil
	}
	s.probeRows, s.buildRows = probeRows[:0], buildRows[:0]
	pair := s.pair
	np, nk := in.NumCols(), len(p.build.keyTypes)
	gatherCols(pair.Cols()[:np], in.Cols(), probeRows)
	for j, v := range pair.Cols()[np:] {
		p.build.index.cols[nk+j].gather(v, buildRows)
	}
	pair.SetLen(m)

	out := pair
	markMatched := p.tracksMatches()
	if s.extra != nil {
		pv, err := s.extra.Eval(pair)
		if err != nil {
			return err
		}
		s.sel = kernel.SelectTrue(pv.Bools(), pv.NullWords(), m, s.sel)
		if markMatched {
			for _, j := range s.sel {
				s.matched[probeRows[j]] = true
			}
		}
		if len(s.sel) == 0 {
			return nil
		}
		if len(s.sel) < m {
			gatherChunk(s.filtered, pair, s.sel)
			out = s.filtered
		}
	} else if markMatched {
		for _, i := range probeRows {
			s.matched[i] = true
		}
	}
	if p.Type == plan.SemiJoin || p.Type == plan.AntiJoin {
		return nil // they emit probe rows, after the whole chunk
	}
	return emit(out)
}

// selectMatched returns in sel the probe rows whose matched flag is want.
func selectMatched(matched []bool, want bool, sel []int32) []int32 {
	sel = sel[:0]
	for i, m := range matched {
		if m == want {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// padNull sets v to n NULL rows, their backing zeroed.
func padNull(v *vector.Vector, n int) {
	switch v.Type() {
	case vector.TypeInt64, vector.TypeDate:
		clear(v.ResizeInt64(n))
	case vector.TypeFloat64:
		clear(v.ResizeFloat64(n))
	case vector.TypeString:
		clear(v.ResizeString(n))
	case vector.TypeBool:
		clear(v.ResizeBool(n))
	}
	nulls := v.EnsureNullWords(n)
	for w := range nulls {
		nulls[w] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		nulls[len(nulls)-1] = 1<<r - 1
	}
}

func probeRowHasNullKey(keyVecs []*vector.Vector, i int) bool {
	for _, kv := range keyVecs {
		if kv.IsNull(i) {
			return true
		}
	}
	return false
}

// keysEqual verifies probe row i's keys against build row r's key columns.
// Chained build rows have no NULL key, so only the values are compared.
func (idx *joinIndex) keysEqual(keyVecs []*vector.Vector, i int, r int64) bool {
	ci, ri := r>>vector.ChunkShift, r&(vector.ChunkCapacity-1)
	for k, kv := range keyVecs {
		bc := &idx.cols[k]
		switch kv.Type() {
		case vector.TypeInt64, vector.TypeDate:
			if kv.Int64s()[i] != bc.ints[ci][ri] {
				return false
			}
		case vector.TypeFloat64:
			if kv.Float64s()[i] != bc.floats[ci][ri] {
				return false
			}
		case vector.TypeString:
			if kv.Strings()[i] != bc.strs[ci][ri] {
				return false
			}
		case vector.TypeBool:
			if kv.Bools()[i] != bc.bools[ci][ri] {
				return false
			}
		}
	}
	return true
}
