package engine

import (
	"fmt"
	"sync"

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
// chained-bucket layout (slot heads + per-row next links) with a stored
// hash per row as a cheap prefilter before the real key comparison. It is
// rebuilt from the row buffer on finalize and on checkpoint load, so it
// never appears in the persisted state.
type joinIndex struct {
	mask   uint64
	heads  []int64  // slot -> first row id, -1 when empty
	next   []int64  // row id -> next row in chain, -1 at end
	hashes []uint64 // row id -> key hash
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
	s.index = joinIndex{}
	if nk == 0 || rows == 0 {
		return // cross join: no index, every row matches
	}
	keyIdx := make([]int, nk)
	for i := range keyIdx {
		keyIdx[i] = i
	}
	// Pass 1: hash every row and record NULL-key rows (SQL equality: NULL
	// keys never match, so they are left out of the chains).
	hashes := make([]uint64, rows)
	skip := make([]bool, rows)
	var chunkHashes []uint64
	var rowID int64
	for ci := 0; ci < s.buf.NumChunks(); ci++ {
		c := s.buf.Chunk(ci)
		chunkHashes = c.Hash(keyIdx, chunkHashes)
		copy(hashes[rowID:], chunkHashes)
		hasNulls := false
		for k := 0; k < nk; k++ {
			if c.Col(k).HasNulls() {
				hasNulls = true
				break
			}
		}
		if hasNulls {
			for i := 0; i < c.Len(); i++ {
				skip[rowID+int64(i)] = rowHasNullKey(c, nk, i)
			}
		}
		rowID += int64(c.Len())
	}
	// Pass 2: chain rows under power-of-two slots. Inserting in descending
	// row order yields ascending chains, preserving the match emission
	// order of the old per-hash bucket lists.
	slots := uint64(1)
	for slots < uint64(rows) {
		slots <<= 1
	}
	idx := joinIndex{
		mask:   slots - 1,
		heads:  make([]int64, slots),
		next:   make([]int64, rows),
		hashes: hashes,
	}
	for i := range idx.heads {
		idx.heads[i] = -1
	}
	for r := rows - 1; r >= 0; r-- {
		if skip[r] {
			idx.next[r] = -1
			continue
		}
		slot := hashes[r] & idx.mask
		idx.next[r] = idx.heads[slot]
		idx.heads[slot] = r
	}
	s.index = idx
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
	b += int64(len(s.index.heads)+len(s.index.next)+len(s.index.hashes)) * 8
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
	hashes   []uint64
	matched  []bool
	pair     *vector.Chunk // joined probe++payload rows pending flush
	pairRows []int         // probe row index of each pair row
	filtered *vector.Chunk // pair rows surviving the extra predicate
	frows    []int
	tail     *vector.Chunk // left-outer padding / semi-anti output
}

// getScratch returns a scratch sized for an n-row probe chunk.
func (p *HashJoinProbeOp) getScratch(n int) *probeScratch {
	s, _ := p.scratch.Get().(*probeScratch)
	if s == nil {
		s = &probeScratch{
			keyInsts: newInstances(p.keyProgs),
			keyVecs:  make([]*vector.Vector, len(p.keyProgs)),
			pair:     vector.NewChunk(p.pairTypes),
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
	if cap(s.matched) < n {
		s.matched = make([]bool, n)
	}
	s.matched = s.matched[:n]
	for i := 0; i < n; i++ {
		s.hashes[i] = 0
		s.matched[i] = false
	}
	s.pair.Reset()
	s.pairRows = s.pairRows[:0]
	return s
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

// Process implements StreamOp.
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
	for _, kv := range keyVecs {
		kv.HashInto(hashes)
	}

	matched := s.matched
	emitPairs := p.Type == plan.InnerJoin || p.Type == plan.LeftOuterJoin || p.Type == plan.CrossJoin
	pairOut := s.pair

	flush := func() error {
		if pairOut.Len() == 0 {
			return nil
		}
		keepChunk := pairOut
		keepRows := s.pairRows
		if s.extra != nil {
			sel, err := s.extra.Eval(pairOut)
			if err != nil {
				return err
			}
			s.filtered.Reset()
			s.frows = s.frows[:0]
			bs := sel.Bools()
			for i := 0; i < pairOut.Len(); i++ {
				if sel.IsNull(i) || !bs[i] {
					continue
				}
				s.filtered.AppendRowFrom(pairOut, i)
				s.frows = append(s.frows, s.pairRows[i])
			}
			keepChunk, keepRows = s.filtered, s.frows
		}
		for _, pr := range keepRows {
			matched[pr] = true
		}
		if emitPairs && keepChunk.Len() > 0 {
			if err := emit(keepChunk); err != nil {
				return err
			}
		}
		pairOut.Reset()
		s.pairRows = s.pairRows[:0]
		return nil
	}

	appendPair := func(probeRow int, buildRow int64) error {
		ci, ri := p.build.buf.Locate(buildRow)
		bc := p.build.buf.Chunk(ci)
		nk := len(p.build.keyTypes)
		for j := 0; j < in.NumCols(); j++ {
			pairOut.Col(j).AppendFrom(in.Col(j), probeRow)
		}
		for j := 0; j < len(p.build.payTypes); j++ {
			pairOut.Col(in.NumCols()+j).AppendFrom(bc.Col(nk+j), ri)
		}
		pairOut.SetLen(pairOut.Len() + 1)
		s.pairRows = append(s.pairRows, probeRow)
		if pairOut.Len() >= vector.ChunkCapacity {
			return flush()
		}
		return nil
	}

	if len(p.keyProgs) == 0 {
		// Cross join: every build row pairs with every probe row.
		for i := 0; i < n; i++ {
			for r := int64(0); r < p.build.buf.Rows(); r++ {
				if err := appendPair(i, r); err != nil {
					return err
				}
			}
		}
	} else {
		idx := &p.build.index
		for i := 0; i < n; i++ {
			if idx.heads == nil {
				break // empty build side: nothing can match
			}
			if probeRowHasNullKey(keyVecs, i) {
				continue // NULL keys never match
			}
			h := hashes[i]
			for r := idx.heads[h&idx.mask]; r >= 0; r = idx.next[r] {
				if idx.hashes[r] != h || !p.keysEqual(keyVecs, i, r) {
					continue
				}
				if err := appendPair(i, r); err != nil {
					return err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}

	switch p.Type {
	case plan.LeftOuterJoin:
		// Emit unmatched probe rows padded with NULL build columns.
		out := s.tail
		out.Reset()
		for i := 0; i < n; i++ {
			if matched[i] {
				continue
			}
			for j := 0; j < in.NumCols(); j++ {
				out.Col(j).AppendFrom(in.Col(j), i)
			}
			for j := 0; j < len(p.build.payTypes); j++ {
				out.Col(in.NumCols() + j).AppendNull()
			}
			out.SetLen(out.Len() + 1)
			if out.Len() >= vector.ChunkCapacity {
				if err := emit(out); err != nil {
					return err
				}
				out.Reset()
			}
		}
		if out.Len() > 0 {
			return emit(out)
		}
	case plan.SemiJoin, plan.AntiJoin:
		want := p.Type == plan.SemiJoin
		out := s.tail
		out.Reset()
		for i := 0; i < n; i++ {
			if matched[i] != want {
				continue
			}
			out.AppendRowFrom(in, i)
			if out.Len() >= vector.ChunkCapacity {
				if err := emit(out); err != nil {
					return err
				}
				out.Reset()
			}
		}
		if out.Len() > 0 {
			return emit(out)
		}
	}
	return nil
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
func (p *HashJoinProbeOp) keysEqual(keyVecs []*vector.Vector, i int, r int64) bool {
	ci, ri := p.build.buf.Locate(r)
	bc := p.build.buf.Chunk(ci)
	for k, kv := range keyVecs {
		bcol := bc.Col(k)
		if bcol.IsNull(ri) {
			return false
		}
		switch kv.Type() {
		case vector.TypeInt64, vector.TypeDate:
			if kv.Int64s()[i] != bcol.Int64s()[ri] {
				return false
			}
		case vector.TypeFloat64:
			if kv.Float64s()[i] != bcol.Float64s()[ri] {
				return false
			}
		case vector.TypeString:
			if kv.Strings()[i] != bcol.Strings()[ri] {
				return false
			}
		case vector.TypeBool:
			if kv.Bools()[i] != bcol.Bools()[ri] {
				return false
			}
		}
	}
	return true
}
