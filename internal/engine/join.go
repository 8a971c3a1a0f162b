package engine

import (
	"fmt"
	"slices"
	"sync"

	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

// HashJoinBuildSink is the pipeline breaker that materializes the build
// (right) side of a hash join. It stores each column once, and only the
// columns its probe reads: the buffered rows are laid out as the computed
// keys (a key that is not a bare build column, such as r_k + 1) followed by
// the stored build columns. A key that is a bare build column is read from
// its stored column through keyCols. The stored columns are the bare keys,
// the columns the residual reads and the build columns the join outputs:
// those of its output columns an inner, left-outer or cross join keeps,
// the ones a right-semi or right-anti join keeps, none for a semi or anti
// join. The rows and the bucket index over them are an execution's
// joinBuildState. The index maps key hashes to row ids and is rebuilt from
// the buffer on load, so checkpoints persist only the rows — exactly the
// "entire hash table for the join" the paper measures for join-ending
// pipelines (Fig. 8).
type HashJoinBuildSink struct {
	jt       plan.JoinType
	keyProgs []*expr.Program // the computed keys, over the build input schema
	keyTypes []vector.Type   // every key's type
	keyCols  []int           // key -> its buffer column
	stored   []int           // stored build input columns, in buffer order after the computed keys
	rowTypes []vector.Type   // computed key types ++ stored column types

	// A probe gathers its matches into pair rows: the probe columns
	// probeCols, then the buffer columns pairCols. residual, over the pair
	// rows, is the join's extra predicate remapped (nil without one).
	// probeWidth is the probe column count the join was planned for.
	probeCols  []int
	pairCols   []int
	residual   expr.Expr
	probeWidth int

	// out is the join's output columns, positions in its full output (the
	// probe's columns then the build's, or one side's alone); outCols is
	// where each comes from: a pair column for an inner, left-outer or
	// cross join, a probe column for a semi or anti join, a buffer column
	// for a right-semi or right-anti join.
	out     []int
	outCols []int
}

// joinBuildState is a join build's global state: the buffered rows, and
// the index over them once finalized.
type joinBuildState struct {
	buf   RowBuffer
	index joinIndex
}

// maxBuildRows bounds a join build: the index stores row ids plus one in
// 32 bits.
const maxBuildRows = 1<<32 - 1

// joinIndex is the probe-side hash index over the build buffer: a flat
// chained-bucket layout. heads maps a power-of-two slot (the low bits of a
// key hash) to its first row, and entries holds each row's tag (the high
// half of its key hash, a cheap prefilter before the real key comparison)
// beside its chain link, so an entry is 8 bytes and a chain step reads one
// cache line. Row ids are stored plus one, so the zero that make fills in
// ends a chain. cols views every buffer column chunk by chunk, for the
// probe's bulk gather of build columns, and keys points at each key's
// column among them, for the key comparison. The index is
// rebuilt from the row buffer on finalize and on checkpoint load, so it
// never appears in the persisted state.
type joinIndex struct {
	mask    uint64
	heads   []uint32 // slot -> first row id + 1, 0 when empty
	entries []joinEntry
	cols    []chunkedCol  // the buffer's columns
	keys    []*chunkedCol // key k's column in cols
}

// joinEntry is one build row's slot in the index.
type joinEntry struct {
	tag  uint32 // the high half of the row's key hash
	next uint32 // next row id + 1 in the chain, 0 at its end
}

// NewHashJoinBuildSink builds the build sink of join jt for the key
// expressions over the build input types. extra, the join's residual
// predicate over probeWidth probe columns followed by the build columns,
// may be nil; the sink remaps it onto the pair rows. out lists the join's
// output columns, ascending positions in its full output; nil is all of
// them.
func NewHashJoinBuildSink(jt plan.JoinType, keys []expr.Expr, extra expr.Expr, probeWidth int, inTypes []vector.Type, out []int) (*HashJoinBuildSink, error) {
	// bareCol is the build column key k is, or -1 for a computed key.
	bareCol := func(k expr.Expr) int {
		if c, ok := k.(*expr.Column); ok && c.Index >= 0 && c.Index < len(inTypes) && c.Typ == inTypes[c.Index] {
			return c.Index
		}
		return -1
	}
	semiAnti := jt == plan.SemiJoin || jt == plan.AntiJoin
	// The full output is the probe columns, the build columns, or both.
	probeOut, buildOut := probeWidth, len(inTypes)
	switch {
	case semiAnti:
		buildOut = 0
	case marksBuild(jt):
		probeOut = 0
	}
	if out == nil {
		out = make([]int, probeOut+buildOut)
		for i := range out {
			out[i] = i
		}
	}
	// pairProbe and pairBuild mark the probe and build columns of the pair
	// rows: the ones the residual reads, and the output columns of the
	// joins that output pairs.
	pairProbe := make([]bool, probeWidth)
	pairBuild := make([]bool, len(inTypes))
	keep := make([]bool, len(inTypes))
	for i, o := range out {
		if o < 0 || o >= probeOut+buildOut || i > 0 && o <= out[i-1] {
			return nil, fmt.Errorf("join output columns %v of %d", out, probeOut+buildOut)
		}
		switch {
		case o >= probeOut:
			keep[o-probeOut] = true
			pairBuild[o-probeOut] = !marksBuild(jt)
		case !semiAnti:
			pairProbe[o] = true
		}
	}
	if extra != nil {
		if _, err := expr.RemapColumns(extra, func(i int) (int, error) {
			switch {
			case i >= 0 && i < probeWidth:
				pairProbe[i] = true
			case i >= probeWidth && i < probeWidth+len(inTypes):
				pairBuild[i-probeWidth] = true
				keep[i-probeWidth] = true
			default:
				return 0, fmt.Errorf("join residual reads column %d of %d", i, probeWidth+len(inTypes))
			}
			return i, nil
		}); err != nil {
			return nil, err
		}
	}
	for _, k := range keys {
		if b := bareCol(k); b >= 0 {
			keep[b] = true
		}
	}

	s := &HashJoinBuildSink{
		jt:         jt,
		keyTypes:   make([]vector.Type, len(keys)),
		keyCols:    make([]int, len(keys)),
		rowTypes:   make([]vector.Type, 0, len(keys)+len(inTypes)),
		probeWidth: probeWidth,
		out:        out,
		outCols:    make([]int, len(out)),
	}
	var computed []expr.Expr
	for k, key := range keys {
		s.keyTypes[k] = key.Type()
		if bareCol(key) < 0 {
			s.keyCols[k] = len(computed)
			computed = append(computed, key)
			s.rowTypes = append(s.rowTypes, key.Type())
		}
	}
	nc := len(computed)
	for b, ok := range keep {
		if ok {
			s.stored = append(s.stored, b)
			s.rowTypes = append(s.rowTypes, inTypes[b])
		}
	}
	col := func(b int) int { return nc + slices.Index(s.stored, b) } // build column b's buffer column
	for k, key := range keys {
		if b := bareCol(key); b >= 0 {
			s.keyCols[k] = col(b)
		}
	}
	// pairPos maps a probe column, then a build column offset by
	// probeWidth, to its pair column.
	pairPos := make([]int, probeWidth+len(inTypes))
	for i, ok := range pairProbe {
		if ok {
			pairPos[i] = len(s.probeCols)
			s.probeCols = append(s.probeCols, i)
		}
	}
	for b, ok := range pairBuild {
		if ok {
			pairPos[probeWidth+b] = len(s.probeCols) + len(s.pairCols)
			s.pairCols = append(s.pairCols, col(b))
		}
	}
	for i, o := range out {
		switch {
		case semiAnti:
			s.outCols[i] = o
		case marksBuild(jt):
			s.outCols[i] = col(o)
		default:
			s.outCols[i] = pairPos[o]
		}
	}
	if extra != nil {
		var err error
		if s.residual, err = expr.RemapColumns(extra, func(i int) (int, error) { return pairPos[i], nil }); err != nil {
			return nil, err
		}
	}
	var err error
	if s.keyProgs, err = compilePrograms(computed); err != nil {
		return nil, err
	}
	return s, nil
}

type joinBuildLocal struct {
	buf      *RowBuffer
	keyInsts []*expr.Instance
	// keyVecs and rowCols are per-chunk scratch for the evaluated computed
	// keys and the buffer's column layout; worker-local, so plain reuse is
	// race-free.
	keyVecs []*vector.Vector
	rowCols []*vector.Vector
}

func (s *HashJoinBuildSink) newLocal(buf *RowBuffer) *joinBuildLocal {
	return &joinBuildLocal{buf: buf, keyInsts: newInstances(s.keyProgs), keyVecs: make([]*vector.Vector, len(s.keyProgs))}
}

// MakeGlobal implements Sink.
func (s *HashJoinBuildSink) MakeGlobal([]GlobalState) GlobalState {
	return &joinBuildState{buf: RowBuffer{types: s.rowTypes}}
}

// MakeLocal implements Sink.
func (s *HashJoinBuildSink) MakeLocal(GlobalState) LocalState {
	return s.newLocal(NewRowBuffer(s.rowTypes))
}

// Consume implements Sink.
func (s *HashJoinBuildSink) Consume(ls LocalState, c *vector.Chunk) error {
	l := ls.(*joinBuildLocal)
	if err := evalInstances(l.keyInsts, c, l.keyVecs); err != nil {
		return err
	}
	// Lay out the computed keys then the stored columns and bulk-append
	// the whole chunk; AppendRange copies, so a computed key's vector
	// aliasing an input column is fine.
	l.rowCols = append(l.rowCols[:0], l.keyVecs...)
	for _, b := range s.stored {
		l.rowCols = append(l.rowCols, c.Col(b))
	}
	l.buf.appendVectors(l.rowCols, 0, c.Len())
	return nil
}

// Combine implements Sink.
func (s *HashJoinBuildSink) Combine(gs GlobalState, ls LocalState) error {
	gs.(*joinBuildState).buf.Concat(ls.(*joinBuildLocal).buf)
	return nil
}

// Finalize implements Sink.
func (s *HashJoinBuildSink) Finalize(gs GlobalState) error {
	return gs.(*joinBuildState).rebuildBuckets(s.keyCols)
}

// checkBuildRows refuses a build of more rows than the index addresses.
func checkBuildRows(rows uint64) error {
	if rows >= maxBuildRows {
		return fmt.Errorf("hash join build of %d rows: the index addresses fewer than %d", rows, uint64(maxBuildRows))
	}
	return nil
}

// rebuildBuckets indexes the rows on their key columns keyCols.
func (g *joinBuildState) rebuildBuckets(keyCols []int) error {
	rows := g.buf.Rows()
	if err := checkBuildRows(uint64(rows)); err != nil {
		return err
	}
	g.index = joinIndex{cols: chunkedCols(&g.buf)}
	if len(keyCols) == 0 || rows == 0 {
		return nil // keyless: no index, every row matches
	}
	idx := &g.index
	idx.keys = make([]*chunkedCol, len(keyCols))
	for k, c := range keyCols {
		idx.keys[k] = &idx.cols[c]
	}
	slots := uint64(1)
	for slots < uint64(rows) {
		slots <<= 1
	}
	idx.mask = slots - 1
	idx.heads = make([]uint32, slots)
	idx.entries = make([]joinEntry, rows)
	// Hash each chunk's keys and chain its rows under their slots. Walking
	// the rows in descending order yields ascending chains, so matches
	// come out in build-row order. Rows with a NULL key stay out of the
	// chains: under SQL equality they never match.
	hashes := make([]uint64, min(rows, vector.ChunkCapacity))
	for ci := g.buf.NumChunks() - 1; ci >= 0; ci-- {
		c := g.buf.Chunk(ci)
		h := hashes[:c.Len()]
		clear(h)
		hasNulls := false
		for _, kc := range keyCols {
			c.Col(kc).HashInto(h)
			hasNulls = hasNulls || c.Col(kc).HasNulls()
		}
		base := uint32(ci) << vector.ChunkShift
		for i := len(h) - 1; i >= 0; i-- {
			if hasNulls && rowHasNullKey(c, keyCols, i) {
				continue
			}
			e := &idx.entries[base+uint32(i)]
			e.tag = uint32(h[i] >> 32)
			slot := h[i] & idx.mask
			e.next = idx.heads[slot]
			idx.heads[slot] = base + uint32(i) + 1
		}
	}
	return nil
}

func rowHasNullKey(c *vector.Chunk, keyCols []int, i int) bool {
	for _, kc := range keyCols {
		if c.Col(kc).IsNull(i) {
			return true
		}
	}
	return false
}

// saveBuffer writes buf's row count, then buf: a semi or anti join
// without keys or residual stores no column, and a zero-width chunk saves
// no row count.
func saveBuffer(buf *RowBuffer, enc *vector.Encoder) error {
	enc.Uvarint(uint64(buf.Rows()))
	buf.Save(enc)
	return enc.Err()
}

// loadBuffer reads what saveBuffer wrote, refusing a buffer of other
// column types than types and one of more rows than a join index
// addresses.
func loadBuffer(dec *vector.Decoder, types []vector.Type) (*RowBuffer, error) {
	rows := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if err := checkBuildRows(rows); err != nil {
		return nil, err
	}
	buf, err := loadRowBufferOf(dec, types)
	if err != nil {
		return nil, err
	}
	if err := buf.claimRows(int64(rows)); err != nil {
		return nil, err
	}
	return buf, nil
}

// SaveGlobal implements Sink.
func (s *HashJoinBuildSink) SaveGlobal(gs GlobalState, enc *vector.Encoder) error {
	return saveBuffer(&gs.(*joinBuildState).buf, enc)
}

// LoadGlobal implements Sink.
func (s *HashJoinBuildSink) LoadGlobal(gs GlobalState, dec *vector.Decoder) error {
	buf, err := loadBuffer(dec, s.rowTypes)
	if err != nil {
		return err
	}
	g := gs.(*joinBuildState)
	g.buf = *buf
	return g.rebuildBuckets(s.keyCols)
}

// SaveLocal implements Sink.
func (s *HashJoinBuildSink) SaveLocal(ls LocalState, enc *vector.Encoder) error {
	return saveBuffer(ls.(*joinBuildLocal).buf, enc)
}

// LoadLocal implements Sink.
func (s *HashJoinBuildSink) LoadLocal(_ GlobalState, dec *vector.Decoder) (LocalState, error) {
	buf, err := loadBuffer(dec, s.rowTypes)
	if err != nil {
		return nil, err
	}
	return s.newLocal(buf), nil
}

// MemBytes implements Sink.
func (s *HashJoinBuildSink) MemBytes(gs GlobalState) int64 {
	g := gs.(*joinBuildState)
	return g.buf.MemBytes() + int64(len(g.index.heads))*4 + int64(len(g.index.entries))*8
}

// LocalMemBytes implements Sink.
func (s *HashJoinBuildSink) LocalMemBytes(ls LocalState) int64 {
	return ls.(*joinBuildLocal).buf.MemBytes()
}

// joinProber is the probe half of a hash join, shared by the streaming
// probe (HashJoinProbeOp) and the mark sink of a right-semi or right-anti
// join (HashJoinMarkSink): the probe keys, the build's residual and the pair
// rows it is evaluated over, the chain walk that finds each probe row's
// matches, and the flush that turns pending matches into pair rows.
type joinProber struct {
	build    *HashJoinBuildSink
	buildID  int
	keyProgs []*expr.Program // over the probe input schema
	extra    *expr.Selection // the build's residual; may be nil

	probeTypes []vector.Type
	pairTypes  []vector.Type // the types of the build's probeCols, then of its pairCols
}

// newJoinProber builds the probe half of build's join, built by pipeline
// buildID, for the probe-side key expressions over probeTypes.
func newJoinProber(build *HashJoinBuildSink, buildID int, keys []expr.Expr, probeTypes []vector.Type) (joinProber, error) {
	if len(keys) != len(build.keyTypes) || len(probeTypes) != build.probeWidth {
		return joinProber{}, fmt.Errorf("hash join probe of %d keys over %d columns for a build of %d keys over %d",
			len(keys), len(probeTypes), len(build.keyTypes), build.probeWidth)
	}
	keyProgs, err := compilePrograms(keys)
	if err != nil {
		return joinProber{}, err
	}
	var extra *expr.Selection
	if build.residual != nil {
		if extra, err = expr.CompileSelection(build.residual); err != nil {
			return joinProber{}, err
		}
	}
	pair := make([]vector.Type, 0, len(build.probeCols)+len(build.pairCols))
	for _, c := range build.probeCols {
		pair = append(pair, probeTypes[c])
	}
	for _, c := range build.pairCols {
		pair = append(pair, build.rowTypes[c])
	}
	return joinProber{build: build, buildID: buildID, keyProgs: keyProgs, extra: extra, probeTypes: probeTypes, pairTypes: pair}, nil
}

// probeScratch is the reusable per-morsel working set of a probe.
type probeScratch struct {
	keyInsts []*expr.Instance
	extra    *expr.SelectionInstance // nil without a residual predicate
	keyVecs  []*vector.Vector
	hashes   []uint64 // per probe row: its key hash, then its first candidate
	matched  []bool   // per probe row; only when the probe tracks matches
	// probeRows and buildRows are the pending matches, one pair per index:
	// the probe row and the build row id. Sized once at ChunkCapacity, the
	// point where they flush.
	probeRows []int32
	buildRows []int64
	sel       []int32       // residual survivors, or the tail's rows
	pair      *vector.Chunk // the pending matches as probe++build rows
	filtered  *vector.Chunk // the output columns of pair rows surviving the extra predicate
	tail      *vector.Chunk // left-outer padding / semi-anti output
	view      *vector.Chunk // the output columns of pair or probe rows, when they are not all
}

// newScratch returns the working set every probe needs: key evaluation
// and the residual's instance, and for a walk that collects pairs
// (walkPairs), the pending matches and their pair rows.
func (jp *joinProber) newScratch(pairs bool) *probeScratch {
	s := &probeScratch{
		keyInsts: newInstances(jp.keyProgs),
		keyVecs:  make([]*vector.Vector, len(jp.keyProgs)),
	}
	if pairs {
		s.probeRows = make([]int32, 0, vector.ChunkCapacity)
		s.buildRows = make([]int64, 0, vector.ChunkCapacity)
		s.pair = vector.NewChunk(jp.pairTypes)
	}
	if jp.extra != nil {
		s.extra = jp.extra.NewInstance()
		s.sel = make([]int32, 0, vector.ChunkCapacity)
	}
	return s
}

// walkMode is what the chain walk (joinProber.walk) does with a match.
type walkMode uint8

const (
	walkPairs walkMode = iota // collect it as a pending pair
	walkFirst                 // flag the probe row, and stop at its first match
	walkMark                  // mark the build row
)

// walk evaluates and hashes in's probe keys and finds each probe row's
// matches among the finalized build b: the build rows with equal keys, in
// build-row order, or every build row when the join has no keys. A NULL
// key matches nothing. With
// walkPairs each match becomes a pending pair, and flush runs at every
// ChunkCapacity pairs and once at the end when pairs are pending;
// walkFirst sets the probe row's s.matched flag; walkMark sets the build
// row's bit in marked. When marked is not nil, a build row whose bit is
// set is no candidate any more.
func (jp *joinProber) walk(s *probeScratch, b *joinBuildState, in *vector.Chunk, mode walkMode, marked []uint64, flush func() error) error {
	n := in.Len()
	keyVecs := s.keyVecs
	if err := evalInstances(s.keyInsts, in, keyVecs); err != nil {
		return err
	}
	addMatch := func(i int, r int64) error {
		s.probeRows = append(s.probeRows, int32(i))
		s.buildRows = append(s.buildRows, r)
		if len(s.probeRows) == vector.ChunkCapacity {
			return flush()
		}
		return nil
	}
	flushRest := func() error {
		if len(s.probeRows) == 0 {
			return nil
		}
		return flush()
	}
	if len(jp.keyProgs) == 0 {
		// Keyless: every build row pairs with every probe row.
		rows := b.buf.Rows()
		switch mode {
		case walkFirst:
			for i := range s.matched {
				s.matched[i] = rows > 0
			}
		case walkMark:
			if n > 0 {
				markAll(marked, rows)
			}
		default:
			for i := 0; i < n; i++ {
				for r := int64(0); r < rows; r++ {
					if marked != nil && isMarked(marked, uint32(r)) {
						continue
					}
					if err := addMatch(i, r); err != nil {
						return err
					}
				}
			}
		}
		return flushRest()
	}
	idx := &b.index
	if idx.heads == nil {
		return nil // an empty build side matches nothing
	}
	if cap(s.hashes) < n {
		s.hashes = make([]uint64, n)
	}
	hashes := s.hashes[:n]
	clear(hashes)
	nullKeys := false
	for _, kv := range keyVecs {
		kv.HashInto(hashes)
		nullKeys = nullKeys || kv.HasNulls()
	}
	heads, entries, mask := idx.heads, idx.entries, idx.mask
	// Replace every row's hash by its first candidate, the first entry of
	// its chain with the same tag (0 for none), before walking any chain:
	// the rows' lookups are independent, so their cache misses overlap
	// instead of queueing one behind the other.
	for i, h := range hashes {
		tag := uint32(h >> 32)
		e := heads[h&mask]
		for e != 0 && entries[e-1].tag != tag {
			e = entries[e-1].next
		}
		hashes[i] = uint64(e)
	}
	for i, first := range hashes {
		e := uint32(first)
		if e == 0 || nullKeys && probeRowHasNullKey(keyVecs, i) {
			continue // no candidate, or a NULL key, which never matches
		}
		tag := entries[e-1].tag
		for e != 0 {
			r := e - 1
			e = entries[r].next
			if entries[r].tag != tag || marked != nil && isMarked(marked, r) || !idx.keysEqual(keyVecs, i, r) {
				continue
			}
			if mode == walkFirst {
				s.matched[i] = true
				break
			}
			if mode == walkMark {
				markRow(marked, r)
				continue
			}
			if err := addMatch(i, int64(r)); err != nil {
				return err
			}
		}
	}
	return flushRest()
}

// pairUp turns the pending matches into pair rows in s.pair, the build's
// probeCols gathered from in and its pairCols from b's buffer, and
// empties the pending lists, returning them. With a residual predicate it
// leaves in s.sel the pairs that satisfy it; without one every pair does.
func (jp *joinProber) pairUp(s *probeScratch, b *joinBuildState, in *vector.Chunk) (probeRows []int32, buildRows []int64, err error) {
	probeRows, buildRows = s.probeRows, s.buildRows
	s.probeRows, s.buildRows = probeRows[:0], buildRows[:0]
	m := len(probeRows)
	pair := s.pair
	np := len(jp.build.probeCols)
	for j, c := range jp.build.probeCols {
		gatherCol(pair.Col(j), in.Col(c), probeRows)
	}
	for j, v := range pair.Cols()[np:] {
		b.index.cols[jp.build.pairCols[j]].gather(v, buildRows)
	}
	pair.SetLen(m)
	if s.extra != nil {
		if s.sel, err = s.extra.Select(pair, s.sel); err != nil {
			return nil, nil, err
		}
	}
	return probeRows, buildRows, nil
}

// HashJoinProbeOp is the streaming probe operator. It reads the immutable
// finalized state of its build pipeline, bound once per worker (Bind), and
// therefore carries no per-worker state of its own. Predicate transfer's
// key filter (compiler.keyFilter) is one too: a semi probe of another
// join's build that passes its input rows whole.
type HashJoinProbeOp struct {
	joinProber
	Type plan.JoinType
	// outCols are the output columns' positions in the pair rows (an
	// inner, left-outer or cross join) or the probe rows (a semi or anti
	// join), and whole is set when they are all of them, in order.
	outCols  []int
	outTypes []vector.Type
	whole    bool

	// scratch pools per-worker probe state (the operator instance is shared
	// by all workers of the pipeline). See StreamOp for why reusing emitted
	// chunks is sound.
	scratch sync.Pool
}

// getScratch returns a scratch sized for an n-row probe chunk.
func (p *HashJoinProbeOp) getScratch(n int) *probeScratch {
	s, _ := p.scratch.Get().(*probeScratch)
	if s == nil {
		s = p.newScratch(p.mode() == walkPairs)
		if s.sel == nil && p.tracksMatches() {
			s.sel = make([]int32, 0, vector.ChunkCapacity)
		}
		if p.extra != nil {
			s.filtered = vector.NewChunk(p.outTypes)
		}
		if p.tracksMatches() {
			s.tail = vector.NewChunk(p.outTypes)
		}
		if !p.whole {
			s.view = vector.NewViewChunk(p.outTypes)
		}
	}
	if p.tracksMatches() {
		if cap(s.matched) < n {
			s.matched = make([]bool, n)
		}
		s.matched = s.matched[:n]
		clear(s.matched)
	}
	return s
}

// mode is the probe's chain walk: without a residual predicate, the first
// match decides a semi or anti join's row.
func (p *HashJoinProbeOp) mode() walkMode {
	if p.extra == nil && (p.Type == plan.SemiJoin || p.Type == plan.AntiJoin) {
		return walkFirst
	}
	return walkPairs
}

// tracksMatches reports whether the join's output depends on which probe
// rows matched: left-outer, semi and anti joins.
func (p *HashJoinProbeOp) tracksMatches() bool {
	return p.Type != plan.InnerJoin && p.Type != plan.CrossJoin
}

// NewHashJoinProbeOp builds the probe operator of build's join, built by
// pipeline buildID, for the probe-side key expressions over probeTypes. The
// join type and the residual predicate come from build.
func NewHashJoinProbeOp(build *HashJoinBuildSink, buildID int, keys []expr.Expr, probeTypes []vector.Type) (*HashJoinProbeOp, error) {
	if marksBuild(build.jt) {
		return nil, fmt.Errorf("hash join probe of a %v join: its left side marks the build", build.jt)
	}
	jp, err := newJoinProber(build, buildID, keys, probeTypes)
	if err != nil {
		return nil, err
	}
	from := jp.pairTypes
	if build.jt == plan.SemiJoin || build.jt == plan.AntiJoin {
		from = probeTypes
	}
	out := make([]vector.Type, len(build.outCols))
	whole := len(out) == len(from)
	for i, c := range build.outCols {
		out[i] = from[c]
		whole = whole && c == i
	}
	return &HashJoinProbeOp{joinProber: jp, Type: build.jt, outCols: build.outCols, outTypes: out, whole: whole}, nil
}

// columns points s.view at the output columns of c, rows of the pair or
// probe layout, unless they are all of c.
func (p *HashJoinProbeOp) columns(s *probeScratch, c *vector.Chunk) *vector.Chunk {
	if p.whole {
		return c
	}
	for j, k := range p.outCols {
		*s.view.Col(j) = *c.Col(k)
	}
	s.view.SetLen(c.Len())
	return s.view
}

// gatherOut gathers the sel rows of the output columns of c, rows of the
// pair or probe layout, into dst.
func (p *HashJoinProbeOp) gatherOut(dst, c *vector.Chunk, sel []int32) *vector.Chunk {
	for j, k := range p.outCols {
		gatherCol(dst.Col(j), c.Col(k), sel)
	}
	dst.SetLen(len(sel))
	return dst
}

// OutTypes implements StreamOp.
func (p *HashJoinProbeOp) OutTypes() []vector.Type { return p.outTypes }

// Bind implements StreamOp: the worker probes its execution's build.
func (p *HashJoinProbeOp) Bind(states []GlobalState, emit func(*vector.Chunk) error) func(*vector.Chunk) error {
	b := states[p.buildID].(*joinBuildState)
	return func(in *vector.Chunk) error { return p.process(b, in, emit) }
}

// process probes build b with one morsel. The chain walk only collects
// matches; at every ChunkCapacity matches and at the end of the chunk,
// flush builds the pair rows column by column with typed gathers.
func (p *HashJoinProbeOp) process(b *joinBuildState, in *vector.Chunk, emit func(*vector.Chunk) error) error {
	n := in.Len()
	if n == 0 {
		return nil
	}
	s := p.getScratch(n)
	defer p.scratch.Put(s)
	if err := p.walk(s, b, in, p.mode(), nil, func() error { return p.flush(s, b, in, emit) }); err != nil {
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
		for j, o := range p.build.out {
			if o < p.build.probeWidth {
				gatherCol(s.tail.Col(j), in.Col(o), sel)
			} else {
				padNull(s.tail.Col(j), len(sel))
			}
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
			return emit(p.columns(s, in))
		}
		return emit(p.gatherOut(s.tail, in, sel))
	}
	return nil
}

// flush pairs up the pending matches, marks the matched probe rows, and
// emits the surviving pairs of the joins that output them.
func (p *HashJoinProbeOp) flush(s *probeScratch, b *joinBuildState, in *vector.Chunk, emit func(*vector.Chunk) error) error {
	probeRows, _, err := p.pairUp(s, b, in)
	if err != nil {
		return err
	}
	markMatched := p.tracksMatches()
	if s.extra != nil {
		if markMatched {
			for _, j := range s.sel {
				s.matched[probeRows[j]] = true
			}
		}
		if len(s.sel) == 0 || p.Type == plan.SemiJoin || p.Type == plan.AntiJoin {
			return nil // semi and anti joins emit probe rows, after the whole chunk
		}
		if len(s.sel) < len(probeRows) {
			return emit(p.gatherOut(s.filtered, s.pair, s.sel))
		}
	} else if markMatched {
		for _, i := range probeRows {
			s.matched[i] = true
		}
	}
	if p.Type == plan.SemiJoin || p.Type == plan.AntiJoin {
		return nil
	}
	return emit(p.columns(s, s.pair))
}

// marksBuild reports whether jt outputs build rows by their matches: a
// right-semi or right-anti join, whose left side marks the build through a
// HashJoinMarkSink instead of streaming through a probe.
func marksBuild(jt plan.JoinType) bool {
	return jt == plan.RightSemiJoin || jt == plan.RightAntiJoin
}

// HashJoinMarkSink ends the pipeline of a right-semi or right-anti join's
// left input. Each worker walks its probe rows through the build's index,
// as a probe does, and sets a bit in a bitmap over the build rows for every
// build row a probe row matches under the keys and the residual; a build
// row already marked is no candidate any more. Combine ORs the workers'
// bitmaps, and Finalize gathers the build rows a right-semi join keeps (the
// marked ones) or a right-anti join keeps (the others), in build-row
// order, into its global state's buffer, which the consumer scans as it
// scans an aggregate's output. A build row with a NULL key is never marked.
type HashJoinMarkSink struct {
	joinProber
	anti     bool
	outTypes []vector.Type
}

// markState is a mark sink's global state: the execution's build it
// marks, the combined bitmap, one bit per build row, and the kept rows.
type markState struct {
	build  *joinBuildState
	marked []uint64
	out    RowBuffer
}

// markLocal is one worker's bitmap over the build rows and its probe
// working set.
type markLocal struct {
	build  *joinBuildState
	marked []uint64
	s      *probeScratch
}

// NewHashJoinMarkSink builds the mark sink of build's right-semi or
// right-anti join, built by pipeline buildID, for the probe-side key
// expressions over probeTypes.
func NewHashJoinMarkSink(build *HashJoinBuildSink, buildID int, keys []expr.Expr, probeTypes []vector.Type) (*HashJoinMarkSink, error) {
	if !marksBuild(build.jt) {
		return nil, fmt.Errorf("hash join mark sink of a %v join", build.jt)
	}
	jp, err := newJoinProber(build, buildID, keys, probeTypes)
	if err != nil {
		return nil, err
	}
	types := make([]vector.Type, len(build.outCols))
	for i, c := range build.outCols {
		types[i] = build.rowTypes[c]
	}
	return &HashJoinMarkSink{joinProber: jp, anti: build.jt == plan.RightAntiJoin, outTypes: types}, nil
}

// OutTypes returns the types of the rows the sink outputs: the join's
// output columns of the build input.
func (s *HashJoinMarkSink) OutTypes() []vector.Type { return s.outTypes }

// markWords is the bitmap length for rows build rows.
func markWords(rows int64) int { return int((rows + 63) / 64) }

func isMarked(marked []uint64, r uint32) bool { return marked[r>>6]&(1<<(r&63)) != 0 }

func markRow(marked []uint64, r uint32) { marked[r>>6] |= 1 << (r & 63) }

// markAll sets the first rows bits of marked.
func markAll(marked []uint64, rows int64) {
	full := int(rows / 64)
	for w := range marked[:full] {
		marked[w] = ^uint64(0)
	}
	if tail := rows & 63; tail != 0 {
		marked[full] = 1<<tail - 1
	}
}

// MakeGlobal implements Sink: the state marks its execution's build.
func (s *HashJoinMarkSink) MakeGlobal(states []GlobalState) GlobalState {
	return &markState{build: states[s.buildID].(*joinBuildState), out: RowBuffer{types: s.outTypes}}
}

func (s *HashJoinMarkSink) newLocal(build *joinBuildState, marked []uint64) *markLocal {
	return &markLocal{build: build, marked: marked, s: s.newScratch(s.extra != nil)}
}

// MakeLocal implements Sink. The build is final by then: the pipeline
// depends on it.
func (s *HashJoinMarkSink) MakeLocal(gs GlobalState) LocalState {
	b := gs.(*markState).build
	return s.newLocal(b, make([]uint64, markWords(b.buf.Rows())))
}

// Consume implements Sink.
func (s *HashJoinMarkSink) Consume(ls LocalState, c *vector.Chunk) error {
	l := ls.(*markLocal)
	if c.Len() == 0 {
		return nil
	}
	if s.extra == nil {
		return s.walk(l.s, l.build, c, walkMark, l.marked, nil) // no pairs to flush
	}
	return s.walk(l.s, l.build, c, walkPairs, l.marked, func() error {
		_, buildRows, err := s.pairUp(l.s, l.build, c)
		if err != nil {
			return err
		}
		for _, j := range l.s.sel {
			markRow(l.marked, uint32(buildRows[j]))
		}
		return nil
	})
}

// Combine implements Sink.
func (s *HashJoinMarkSink) Combine(gs GlobalState, ls LocalState) error {
	g, l := gs.(*markState), ls.(*markLocal)
	if g.marked == nil {
		g.marked = make([]uint64, len(l.marked))
	}
	for w, bits := range l.marked {
		g.marked[w] |= bits
	}
	return nil
}

// Finalize implements Sink.
func (s *HashJoinMarkSink) Finalize(gs GlobalState) error {
	g := gs.(*markState)
	rows := g.build.buf.Rows()
	if g.marked == nil {
		g.marked = make([]uint64, markWords(rows))
	}
	cols := g.build.index.cols
	keep := make([]int64, 0, min(rows, vector.ChunkCapacity))
	for r := int64(0); r < rows; r++ {
		if isMarked(g.marked, uint32(r)) != s.anti {
			keep = append(keep, r)
		}
		if len(keep) == vector.ChunkCapacity || r == rows-1 && len(keep) > 0 {
			c := vector.NewChunk(s.outTypes)
			for j, bc := range s.build.outCols {
				cols[bc].gather(c.Col(j), keep)
			}
			c.SetLen(len(keep))
			g.out.adoptChunk(c)
			keep = keep[:0]
		}
	}
	return nil
}

// Buffer implements BufferedSink.
func (s *HashJoinMarkSink) Buffer(gs GlobalState) *RowBuffer { return &gs.(*markState).out }

// SaveGlobal implements Sink: the kept build rows.
func (s *HashJoinMarkSink) SaveGlobal(gs GlobalState, enc *vector.Encoder) error {
	return saveBuffer(&gs.(*markState).out, enc)
}

// LoadGlobal implements Sink.
func (s *HashJoinMarkSink) LoadGlobal(gs GlobalState, dec *vector.Decoder) error {
	buf, err := loadBuffer(dec, s.outTypes)
	if err != nil {
		return err
	}
	gs.(*markState).out = *buf
	return nil
}

// SaveLocal implements Sink: the bitmap, its word count first.
func (s *HashJoinMarkSink) SaveLocal(ls LocalState, enc *vector.Encoder) error {
	l := ls.(*markLocal)
	enc.Uvarint(uint64(len(l.marked)))
	for _, w := range l.marked {
		enc.Uvarint(w)
	}
	return enc.Err()
}

// LoadLocal implements Sink. It refuses a bitmap of another length than
// the build's rows need, or one marking a row past the last.
func (s *HashJoinMarkSink) LoadLocal(gs GlobalState, dec *vector.Decoder) (LocalState, error) {
	b := gs.(*markState).build
	rows := b.buf.Rows()
	words := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if want := markWords(rows); words != uint64(want) {
		return nil, fmt.Errorf("mark bitmap of %d words for %d build rows, want %d", words, rows, want)
	}
	marked := make([]uint64, words)
	for w := range marked {
		marked[w] = dec.Uvarint()
	}
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if tail := rows & 63; tail != 0 && marked[len(marked)-1]>>tail != 0 {
		return nil, fmt.Errorf("mark bitmap marks a row past the %d build rows", rows)
	}
	return s.newLocal(b, marked), nil
}

// MemBytes implements Sink.
func (s *HashJoinMarkSink) MemBytes(gs GlobalState) int64 {
	g := gs.(*markState)
	return int64(len(g.marked))*8 + g.out.MemBytes()
}

// LocalMemBytes implements Sink.
func (s *HashJoinMarkSink) LocalMemBytes(ls LocalState) int64 {
	return int64(len(ls.(*markLocal).marked)) * 8
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
func (idx *joinIndex) keysEqual(keyVecs []*vector.Vector, i int, r uint32) bool {
	ci, ri := r>>vector.ChunkShift, r&(vector.ChunkCapacity-1)
	for k, kv := range keyVecs {
		bc := idx.keys[k]
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
