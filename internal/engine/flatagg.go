package engine

import (
	"fmt"
	"math"
	"sync"

	"github.com/riveterdb/riveter/internal/engine/kernel"
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

// flatAggTable is the aggregate hash table, open-addressed. The key values
// live in one typed column per group-by expression (row g is group g's
// first-seen key), the per-group accumulators in struct-of-arrays columns
// (one aggCol per aggregate spec), and a probe hashes a whole chunk's keys
// with vector.HashInto, then scans a power-of-two slot array linearly,
// comparing the typed key columns directly, so a probe allocates nothing.
// Group indices are dense and assigned in first-seen order, which is also
// the output and the checkpoint order. The per-group arrays (the hashes,
// the key columns and every spec's accumulators) grow together, doubling
// groupCap (reserve): left to append, a large slice grows by about 1.25×,
// and its allocations come to about five times its final size.
type flatAggTable struct {
	slots    []uint32 // group index + 1; 0 = empty
	mask     uint32
	hashes   []uint64 // per group, for rehash, merge and cheap probe rejection
	keys     []*vector.Vector
	cols     []aggCol
	n        int
	groupCap int // groups the per-group arrays hold without reallocating
}

// aggFn is an aggregate function specialized to its argument type: it
// decides which accumulators a spec keeps and which kernel folds it.
type aggFn uint8

const (
	fnCount      aggFn = iota // COUNT, COUNT(*): count
	fnSumInt64                // SUM over BIGINT or DATE: sumI, count
	fnSumFloat64              // SUM over DOUBLE: sumF, count
	fnAvgInt64                // AVG over BIGINT or DATE: sumF, count
	fnAvgFloat64              // AVG over DOUBLE: sumF, count
	fnMin                     // MIN: ext
	fnMax                     // MAX: ext
)

// aggCol is one aggregate spec's accumulators across all groups. Each
// function keeps only the arrays it reads (see aggFn); a DISTINCT spec adds
// its set of (group, value) pairs, and a pair seen for the first time folds
// into the same accumulators a plain row would.
type aggCol struct {
	fn    aggFn
	count []int64
	sumI  []int64
	sumF  []float64
	ext   *vector.Vector // MIN/MAX: group g's extreme, NULL until it has one
	dist  *distinctSet
}

const (
	flatAggInitSlots  = 64
	flatAggInitGroups = 8 // the per-group arrays' first capacity
)

// aggLayout is the shape of one spec's accumulators: its specialized
// function, its argument's type and whether it folds DISTINCT values.
type aggLayout struct {
	fn       aggFn
	arg      vector.Type
	distinct bool
}

func aggLayoutOf(sp plan.AggSpec) (aggLayout, error) {
	l := aggLayout{distinct: sp.Distinct}
	if sp.Arg != nil {
		l.arg = sp.Arg.Type()
	}
	isFloat := l.arg == vector.TypeFloat64
	switch {
	case sp.Func == plan.AggCount || sp.Func == plan.AggCountStar:
		l.fn = fnCount
	case sp.Func == plan.AggMin:
		l.fn = fnMin
	case sp.Func == plan.AggMax:
		l.fn = fnMax
	case l.arg != vector.TypeInt64 && l.arg != vector.TypeDate && !isFloat:
		return l, fmt.Errorf("engine: %s over %v", sp.Func, l.arg)
	case sp.Func == plan.AggSum && isFloat:
		l.fn = fnSumFloat64
	case sp.Func == plan.AggSum:
		l.fn = fnSumInt64
	case isFloat:
		l.fn = fnAvgFloat64
	default:
		l.fn = fnAvgInt64
	}
	return l, nil
}

// newFlatAggTable builds an empty table for the specs laid out by layout.
func newFlatAggTable(layout []aggLayout, keyTypes []vector.Type) *flatAggTable {
	keys := make([]*vector.Vector, len(keyTypes))
	for i, kt := range keyTypes {
		keys[i] = vector.New(kt, 0)
	}
	cols := make([]aggCol, len(layout))
	for i, l := range layout {
		cols[i].fn = l.fn
		if l.fn == fnMin || l.fn == fnMax {
			cols[i].ext = vector.New(l.arg, 0)
		}
		if l.distinct {
			cols[i].dist = newDistinctSet(l.arg)
		}
	}
	return &flatAggTable{
		slots: make([]uint32, flatAggInitSlots),
		mask:  flatAggInitSlots - 1,
		keys:  keys,
		cols:  cols,
	}
}

// reset empties the table, keeping all backing arrays for reuse.
func (t *flatAggTable) reset() {
	clear(t.slots)
	t.hashes = t.hashes[:0]
	for _, k := range t.keys {
		k.Reset()
	}
	for i := range t.cols {
		c := &t.cols[i]
		c.count, c.sumI, c.sumF = c.count[:0], c.sumI[:0], c.sumF[:0]
		if c.ext != nil {
			c.ext.Reset()
		}
		if c.dist != nil {
			c.dist.reset()
		}
	}
	t.n = 0
}

// floatBitsForKey is a DOUBLE key's identity: its bits, with -0.0 taken as
// +0.0.
func floatBitsForKey(f float64) uint64 {
	if f == 0 {
		f = 0 // canonicalize -0
	}
	return math.Float64bits(f)
}

// sameKey reports whether row i of a and row j of b are one key: NULL
// equals NULL whatever the value slots hold, and DOUBLEs compare by
// floatBitsForKey, so -0.0 and +0.0 are one key.
func sameKey(a *vector.Vector, i int, b *vector.Vector, j int) bool {
	an, bn := a.IsNull(i), b.IsNull(j)
	if an || bn {
		return an == bn
	}
	switch a.Type() {
	case vector.TypeInt64, vector.TypeDate:
		return a.Int64s()[i] == b.Int64s()[j]
	case vector.TypeFloat64:
		return floatBitsForKey(a.Float64s()[i]) == floatBitsForKey(b.Float64s()[j])
	case vector.TypeString:
		return a.Strings()[i] == b.Strings()[j]
	default:
		return a.Bools()[i] == b.Bools()[j]
	}
}

// find returns the group whose key is row r of vecs, hashed h, and true;
// or the empty slot where that key belongs and false.
func (t *flatAggTable) find(h uint64, vecs []*vector.Vector, r int) (int32, uint32, bool) {
	i := uint32(h) & t.mask
	for {
		s := t.slots[i]
		if s == 0 {
			return 0, i, false
		}
		g := int32(s - 1)
		if t.hashes[g] == h && t.sameKeys(g, vecs, r) {
			return g, i, true
		}
		i = (i + 1) & t.mask
	}
}

func (t *flatAggTable) sameKeys(g int32, vecs []*vector.Vector, r int) bool {
	for j, k := range t.keys {
		if !sameKey(k, int(g), vecs[j], r) {
			return false
		}
	}
	return true
}

// reserve makes room for n groups in every per-group array, growing them
// together to at least twice their capacity.
func (t *flatAggTable) reserve(n int) {
	if n <= t.groupCap {
		return
	}
	c := max(n, 2*t.groupCap, flatAggInitGroups)
	t.hashes = growTo(t.hashes, c)
	for _, k := range t.keys {
		k.Grow(c)
	}
	for i := range t.cols {
		col := &t.cols[i]
		switch col.fn {
		case fnMin, fnMax:
			col.ext.Grow(c)
			continue
		case fnSumInt64:
			col.sumI = growTo(col.sumI, c)
		case fnSumFloat64, fnAvgInt64, fnAvgFloat64:
			col.sumF = growTo(col.sumF, c)
		}
		col.count = growTo(col.count, c)
	}
	t.groupCap = c
}

// growTo returns s with capacity for c elements.
func growTo[E any](s []E, c int) []E {
	if cap(s) >= c {
		return s
	}
	return append(make([]E, 0, c), s...)
}

// place assigns the next group index to the empty slot found for hash h.
// The caller appends the group's key values.
func (t *flatAggTable) place(h uint64, slot uint32) int32 {
	t.reserve(t.n + 1)
	g := int32(t.n)
	t.n++
	t.slots[slot] = uint32(g) + 1
	t.hashes = append(t.hashes, h)
	if t.n*4 > len(t.slots)*3 {
		t.grow()
	}
	return g
}

// insert places a new group and appends its empty accumulators.
func (t *flatAggTable) insert(h uint64, slot uint32) int32 {
	g := t.place(h, slot)
	for i := range t.cols {
		c := &t.cols[i]
		switch c.fn {
		case fnMin, fnMax:
			c.ext.AppendNull()
			continue
		case fnSumInt64:
			c.sumI = append(c.sumI, 0)
		case fnSumFloat64, fnAvgInt64, fnAvgFloat64:
			c.sumF = append(c.sumF, 0)
		}
		c.count = append(c.count, 0)
	}
	return g
}

// groupOf returns the group of row r of vecs, hashed h, inserting it and
// appending its key values on first sight.
func (t *flatAggTable) groupOf(h uint64, vecs []*vector.Vector, r int) int32 {
	g, slot, ok := t.find(h, vecs, r)
	if !ok {
		g = t.insert(h, slot)
		for j, k := range t.keys {
			k.AppendFrom(vecs[j], r)
		}
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

// fold folds rows [lo, lo+len(groups)) of av, whose row lo+i belongs to
// group groups[i], into the accumulators, skipping NULL rows. av is nil for
// COUNT(*). Only a chunk's arguments are folded from lo 0 with NULLs; a
// DISTINCT set, whose new pairs fold from where they start, holds none.
func (c *aggCol) fold(groups []int32, av *vector.Vector, lo int) {
	var nulls []uint64
	if av != nil && av.HasNulls() {
		nulls = av.NullWords()
	}
	hi := lo + len(groups)
	switch c.fn {
	case fnCount:
		kernel.CountUpdate(groups, nulls, c.count)
	case fnSumInt64:
		kernel.SumInt64Update(groups, av.Int64s()[lo:hi], nulls, c.sumI, c.count)
	case fnSumFloat64:
		kernel.SumFloat64Update(groups, av.Float64s()[lo:hi], nulls, c.sumF, c.count)
	case fnAvgInt64:
		kernel.AvgInt64Update(groups, av.Int64s()[lo:hi], nulls, c.sumF, c.count)
	case fnAvgFloat64:
		kernel.AvgFloat64Update(groups, av.Float64s()[lo:hi], nulls, c.sumF, c.count)
	default:
		c.foldExtreme(groups, av, lo, nulls)
	}
}

// foldExtreme is fold for MIN and MAX. Merge calls it too, with a source
// table's extremes as the values and their NULLs (no value yet) skipped.
func (c *aggCol) foldExtreme(groups []int32, av *vector.Vector, lo int, nulls []uint64) {
	hi, empty, isMin := lo+len(groups), c.ext.NullWords(), c.fn == fnMin
	switch av.Type() {
	case vector.TypeInt64, vector.TypeDate:
		if isMin {
			kernel.MinInt64Update(groups, av.Int64s()[lo:hi], nulls, c.ext.Int64s(), empty)
		} else {
			kernel.MaxInt64Update(groups, av.Int64s()[lo:hi], nulls, c.ext.Int64s(), empty)
		}
	case vector.TypeFloat64:
		if isMin {
			kernel.MinFloat64Update(groups, av.Float64s()[lo:hi], nulls, c.ext.Float64s(), empty)
		} else {
			kernel.MaxFloat64Update(groups, av.Float64s()[lo:hi], nulls, c.ext.Float64s(), empty)
		}
	case vector.TypeString:
		if isMin {
			kernel.MinStringUpdate(groups, av.Strings()[lo:hi], nulls, c.ext.Strings(), empty)
		} else {
			kernel.MaxStringUpdate(groups, av.Strings()[lo:hi], nulls, c.ext.Strings(), empty)
		}
	case vector.TypeBool:
		if isMin {
			kernel.MinBoolUpdate(groups, av.Bools()[lo:hi], nulls, c.ext.Bools(), empty)
		} else {
			kernel.MaxBoolUpdate(groups, av.Bools()[lo:hi], nulls, c.ext.Bools(), empty)
		}
	}
}

// foldDistinct adds the pairs (groups[r], row r of av) that the set has not
// seen, skipping NULL rows, and folds the new ones. vh holds av's row
// hashes; a merge passes its source set's values, hashes and mapped groups.
func (c *aggCol) foldDistinct(groups []int32, av *vector.Vector, vh []uint64) {
	d := c.dist
	start := len(d.groups)
	for r, g := range groups {
		if !av.IsNull(r) {
			d.add(g, vh[r], av, r)
		}
	}
	c.fold(d.groups[start:], d.vals, start)
}

// mergeFrom folds src, whose group sg is this table's group gmap[sg], into
// the accumulators.
func (c *aggCol) mergeFrom(src *aggCol, gmap []int32) {
	if c.dist != nil {
		sd := src.dist
		mapped := make([]int32, len(sd.groups))
		for p, sg := range sd.groups {
			mapped[p] = gmap[sg]
		}
		c.foldDistinct(mapped, sd.vals, sd.hashes)
		return
	}
	switch c.fn {
	case fnMin, fnMax:
		c.foldExtreme(gmap, src.ext, 0, src.ext.NullWords())
		return
	case fnSumInt64:
		for sg, dg := range gmap {
			c.sumI[dg] += src.sumI[sg]
		}
	case fnSumFloat64, fnAvgInt64, fnAvgFloat64:
		for sg, dg := range gmap {
			c.sumF[dg] += src.sumF[sg]
		}
	}
	for sg, dg := range gmap {
		c.count[dg] += src.count[sg]
	}
}

// merge folds every group of src into t, appending src's unseen groups in
// its first-seen order. src's group hashes are the probe hashes. gmap is
// scratch space for the group map, returned for reuse.
func (t *flatAggTable) merge(src *flatAggTable, gmap []int32) []int32 {
	gmap = gmap[:0]
	for g := 0; g < src.n; g++ {
		gmap = append(gmap, t.groupOf(src.hashes[g], src.keys, g))
	}
	for i := range t.cols {
		t.cols[i].mergeFrom(&src.cols[i], gmap)
	}
	return gmap
}

// appendResults appends the final value of groups [lo, hi) to dst, typed.
func (c *aggCol) appendResults(dst *vector.Vector, lo, hi int) {
	switch c.fn {
	case fnCount:
		for _, n := range c.count[lo:hi] {
			dst.AppendInt64(n)
		}
	case fnSumInt64:
		for g := lo; g < hi; g++ {
			if c.count[g] == 0 {
				dst.AppendNull()
			} else {
				dst.AppendInt64(c.sumI[g])
			}
		}
	case fnSumFloat64:
		for g := lo; g < hi; g++ {
			if c.count[g] == 0 {
				dst.AppendNull()
			} else {
				dst.AppendFloat64(c.sumF[g])
			}
		}
	case fnAvgInt64, fnAvgFloat64:
		for g := lo; g < hi; g++ {
			if c.count[g] == 0 {
				dst.AppendNull()
			} else {
				dst.AppendFloat64(c.sumF[g] / float64(c.count[g]))
			}
		}
	default:
		dst.AppendRange(c.ext, lo, hi)
	}
}

// memBytes estimates 64 bytes per group plus 64 per state plus 64 per
// distinct value, for the executor's memory-based checkpoint cost model.
func (t *flatAggTable) memBytes() int64 {
	b := int64(t.n) * int64(64+64*len(t.cols))
	for i := range t.cols {
		if d := t.cols[i].dist; d != nil {
			b += int64(len(d.groups)) * 64
		}
	}
	return b
}

// distinctSet is one DISTINCT spec's (group, value) pairs, open-addressed
// and kept in first-seen order: pair p is (groups[p], row p of vals).
type distinctSet struct {
	slots  []uint32 // pair index + 1; 0 = empty
	mask   uint32
	groups []int32
	hashes []uint64 // the value's hash, without the group
	vals   *vector.Vector
}

func newDistinctSet(typ vector.Type) *distinctSet {
	return &distinctSet{
		slots: make([]uint32, flatAggInitSlots),
		mask:  flatAggInitSlots - 1,
		vals:  vector.New(typ, 0),
	}
}

func (d *distinctSet) reset() {
	clear(d.slots)
	d.groups, d.hashes = d.groups[:0], d.hashes[:0]
	d.vals.Reset()
}

func pairSlot(vh uint64, g int32) uint32 { return uint32(vector.CombineHash(vh, uint64(g))) }

// add inserts the pair (g, row r of src), whose value hashes to vh, and
// reports whether it is new.
func (d *distinctSet) add(g int32, vh uint64, src *vector.Vector, r int) bool {
	i := pairSlot(vh, g) & d.mask
	for s := d.slots[i]; s != 0; s = d.slots[i] {
		p := int(s - 1)
		if d.groups[p] == g && d.hashes[p] == vh && sameKey(d.vals, p, src, r) {
			return false
		}
		i = (i + 1) & d.mask
	}
	d.slots[i] = uint32(len(d.groups)) + 1
	d.groups = append(d.groups, g)
	d.hashes = append(d.hashes, vh)
	d.vals.AppendFrom(src, r)
	if len(d.groups)*4 > len(d.slots)*3 {
		ns := make([]uint32, len(d.slots)*2)
		mask := uint32(len(ns) - 1)
		for p, pg := range d.groups {
			j := pairSlot(d.hashes[p], pg) & mask
			for ns[j] != 0 {
				j = (j + 1) & mask
			}
			ns[j] = uint32(p) + 1
		}
		d.slots, d.mask = ns, mask
	}
	return true
}

// FlatAggSink is the pipeline breaker for hash aggregation. At Combine the
// first worker-local flatAggTable becomes the global table and the others
// merge into it; Finalize materializes the groups into a row buffer
// scannable by the next pipeline — the "global state" of the paper's Fig. 3
// (flatAggState).
// Group-by and argument expressions run as compiled programs, group probes
// allocate nothing, and every fold runs as a generated grouped-update kernel
// over raw slices. SaveLocal writes the v3 aggregate state format
// (saveTable).
type FlatAggSink struct {
	specs    []plan.AggSpec
	layout   []aggLayout // per spec
	outTypes []vector.Type

	groupProgs []*expr.Program
	argProgs   []*expr.Program // nil where the spec takes no argument: COUNT(*)

	localPool sync.Pool // *flatAggLocal recycled at Combine
}

// flatAggState is an aggregate's global state: the table the locals
// combine into (nil before the first Combine), then the finalized rows.
type flatAggState struct {
	table *flatAggTable
	buf   *RowBuffer
}

// NewFlatAggSink builds the sink. outTypes is groupTypes ++ aggregate result
// types (matching plan.Aggregate's schema).
func NewFlatAggSink(groupBy []expr.Expr, specs []plan.AggSpec, outTypes []vector.Type) (*FlatAggSink, error) {
	groupProgs, err := compilePrograms(groupBy)
	if err != nil {
		return nil, err
	}
	args := make([]expr.Expr, len(specs))
	layout := make([]aggLayout, len(specs))
	for i, sp := range specs {
		args[i] = sp.Arg
		if layout[i], err = aggLayoutOf(sp); err != nil {
			return nil, err
		}
	}
	argProgs, err := compilePrograms(args)
	if err != nil {
		return nil, err
	}
	return &FlatAggSink{
		specs:      specs,
		layout:     layout,
		outTypes:   outTypes,
		groupProgs: groupProgs,
		argProgs:   argProgs,
	}, nil
}

// keyTypes returns the group-by columns' types.
func (s *FlatAggSink) keyTypes() []vector.Type { return s.outTypes[:len(s.groupProgs)] }

func (s *FlatAggSink) newTable() *flatAggTable { return newFlatAggTable(s.layout, s.keyTypes()) }

type flatAggLocal struct {
	table      *flatAggTable
	hashes     []uint64 // hashRows' buffer
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

// MakeGlobal implements Sink.
func (s *FlatAggSink) MakeGlobal([]GlobalState) GlobalState { return &flatAggState{} }

// MakeLocal implements Sink. Locals are recycled through a pool: Combine is
// called exactly once per local (scheduler finalize), after which the tables'
// arrays are dead weight the next workers, of any execution, can reuse.
func (s *FlatAggSink) MakeLocal(GlobalState) LocalState {
	if l, ok := s.localPool.Get().(*flatAggLocal); ok && l != nil {
		l.table.reset()
		return l
	}
	return s.newLocal(s.newTable())
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
	// while the probe takes it as +0.0.
	if cap(l.rowGroups) < n {
		// Sized for a full chunk at once: a probe's or a filter's chunks
		// grow one after another, and each growth would allocate.
		l.rowGroups = make([]int32, max(n, vector.ChunkCapacity))
	}
	rowGroups := l.rowGroups[:n]
	t := l.table
	if len(groupVecs) == 0 { // a global aggregate: every row is group 0
		if t.n == 0 {
			t.insert(0, 0)
		}
		clear(rowGroups)
	} else {
		hashes := l.hashRows(groupVecs, n)
		for r, h := range hashes {
			rowGroups[r] = t.groupOf(h, groupVecs, r)
		}
	}

	for i := range t.cols {
		col := &t.cols[i]
		if col.dist == nil {
			col.fold(rowGroups, argVecs[i], 0)
		} else {
			col.foldDistinct(rowGroups, argVecs[i], l.hashRows(argVecs[i:i+1], n))
		}
	}
	return nil
}

// hashRows returns the hashes of the n rows of vecs, in the local's buffer.
func (l *flatAggLocal) hashRows(vecs []*vector.Vector, n int) []uint64 {
	if cap(l.hashes) < n {
		l.hashes = make([]uint64, n)
	}
	hashes := l.hashes[:n]
	clear(hashes)
	for _, v := range vecs {
		v.HashInto(hashes)
	}
	return hashes
}

// Combine implements Sink. While the global table is empty, the local's
// table becomes the global one: merging into an empty table would rebuild
// it exactly (0 + a == a, and the groups keep their first-seen order), so
// the first local is adopted, not copied, and is never recycled. Later
// locals merge in and are recycled into the pool; that is safe because the
// scheduler calls Combine exactly once per local and only snapshots
// (SaveLocal) locals of still-inflight pipelines.
func (s *FlatAggSink) Combine(gs GlobalState, ls LocalState) error {
	g, l := gs.(*flatAggState), ls.(*flatAggLocal)
	if g.table == nil || g.table.n == 0 {
		g.table = l.table
		return nil
	}
	l.rowGroups = g.table.merge(l.table, l.rowGroups)
	s.localPool.Put(l)
	return nil
}

// Finalize implements Sink. It fills the output one chunk at a time, column
// by column: key columns by range copy, then each aggregate in one loop.
// Every pipeline combines one local at least, so the table is set.
func (s *FlatAggSink) Finalize(gs GlobalState) error {
	g := gs.(*flatAggState)
	t := g.table
	if len(t.keys) == 0 && t.n == 0 {
		// Global aggregation over zero rows still yields one row.
		t.insert(0, 0)
	}
	g.buf = NewRowBuffer(s.outTypes)
	for lo := 0; lo < t.n; lo += vector.ChunkCapacity {
		hi := min(lo+vector.ChunkCapacity, t.n)
		c := g.buf.tail() // a fresh chunk: every earlier one is full
		for j, k := range t.keys {
			c.Col(j).AppendRange(k, lo, hi)
		}
		for i := range t.cols {
			t.cols[i].appendResults(c.Col(len(t.keys)+i), lo, hi)
		}
		c.SetLen(hi - lo)
		g.buf.rows += int64(hi - lo)
	}
	return nil
}

// Buffer implements BufferedSink.
func (s *FlatAggSink) Buffer(gs GlobalState) *RowBuffer { return gs.(*flatAggState).buf }

// saveTable writes a table in the v3 aggregate state format: the group
// count, the key columns, each spec's own accumulator arrays in group
// order, then each DISTINCT spec's (group, value) pairs in first-seen
// order. Every array is one a spec reads; nothing is written as a zero
// placeholder, and the bytes are a function of the table alone.
func (s *FlatAggSink) saveTable(enc *vector.Encoder, t *flatAggTable) {
	enc.Uvarint(uint64(t.n))
	for _, k := range t.keys {
		enc.Vector(k)
	}
	for i := range t.cols {
		c := &t.cols[i]
		switch c.fn {
		case fnMin, fnMax:
			enc.Vector(c.ext)
			continue
		case fnSumInt64:
			saveInt64s(enc, c.sumI)
		case fnSumFloat64, fnAvgInt64, fnAvgFloat64:
			for _, x := range c.sumF {
				enc.Float64(x)
			}
		}
		saveInt64s(enc, c.count)
	}
	for i := range t.cols {
		if d := t.cols[i].dist; d != nil {
			enc.Uvarint(uint64(len(d.groups)))
			for _, g := range d.groups {
				enc.Uvarint(uint64(g))
			}
			enc.Vector(d.vals)
		}
	}
}

func saveInt64s(enc *vector.Encoder, xs []int64) {
	for _, x := range xs {
		enc.Varint(x)
	}
}

// loadTable reads saveTable's format from bytes that may be hostile: every
// count is bounded by the bytes that remain, and a repeated key, a pair
// naming a group past the table or a repeated pair is refused.
func (s *FlatAggSink) loadTable(dec *vector.Decoder) (*flatAggTable, error) {
	t := s.newTable()
	n, err := loadCount(dec, "groups")
	if err != nil {
		return nil, err
	}
	for j, k := range t.keys {
		if t.keys[j], err = loadColumn(dec, k.Type(), n); err != nil {
			return nil, err
		}
	}
	for i := range t.cols {
		c := &t.cols[i]
		switch c.fn {
		case fnMin, fnMax:
			if c.ext, err = loadColumn(dec, c.ext.Type(), n); err != nil {
				return nil, err
			}
			c.ext.EnsureNullWords(n) // the kernels address every group's bit
			continue
		case fnSumInt64:
			c.sumI = loadInt64s(dec, n)
		case fnSumFloat64, fnAvgInt64, fnAvgFloat64:
			c.sumF = make([]float64, n)
			for g := range c.sumF {
				c.sumF[g] = dec.Float64()
			}
		}
		c.count = loadInt64s(dec, n)
	}
	for i := range t.cols {
		if d := t.cols[i].dist; d != nil {
			if err := d.load(dec, n); err != nil {
				return nil, err
			}
		}
	}
	if err := dec.Err(); err != nil {
		return nil, err
	}
	hashes := make([]uint64, n)
	for _, k := range t.keys {
		k.HashInto(hashes)
	}
	t.reserve(n)
	for g, h := range hashes {
		_, slot, found := t.find(h, t.keys, g)
		if found {
			return nil, fmt.Errorf("aggregate state: group %d repeats an earlier key", g)
		}
		t.place(h, slot)
	}
	return t, nil
}

// load reads the pairs saveTable wrote for a table of n groups.
func (d *distinctSet) load(dec *vector.Decoder, n int) error {
	np, err := loadCount(dec, "distinct pairs")
	if err != nil {
		return err
	}
	groups := make([]int32, np)
	for p := range groups {
		g := dec.Uvarint()
		if g >= uint64(n) {
			if err := dec.Err(); err != nil {
				return err
			}
			return fmt.Errorf("aggregate state: distinct pair %d names group %d of %d", p, g, n)
		}
		groups[p] = int32(g)
	}
	vals, err := loadColumn(dec, d.vals.Type(), np)
	if err != nil {
		return err
	}
	if vals.HasNulls() {
		return fmt.Errorf("aggregate state: a distinct value is NULL")
	}
	vh := make([]uint64, np)
	vals.HashInto(vh)
	for p, g := range groups {
		if !d.add(g, vh[p], vals, p) {
			return fmt.Errorf("aggregate state: distinct pair %d repeats an earlier one", p)
		}
	}
	return nil
}

// loadCount reads a count of elements that take at least one byte each,
// refusing one that the bytes left cannot hold.
func loadCount(dec *vector.Decoder, what string) (int, error) {
	x := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return 0, err
	}
	if rem := dec.Remaining(); x > math.MaxInt32 || rem >= 0 && x > uint64(rem) {
		return 0, fmt.Errorf("aggregate state: %d %s in %d bytes", x, what, rem)
	}
	return int(x), nil
}

// loadColumn reads a vector that must hold n rows of type typ.
func loadColumn(dec *vector.Decoder, typ vector.Type, n int) (*vector.Vector, error) {
	v := dec.Vector()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if v.Type() != typ || v.Len() != n {
		return nil, fmt.Errorf("aggregate state: a column of %d %v rows where %d %v belong", v.Len(), v.Type(), n, typ)
	}
	return v, nil
}

func loadInt64s(dec *vector.Decoder, n int) []int64 {
	xs := make([]int64, n)
	for g := range xs {
		xs[g] = dec.Varint()
	}
	return xs
}

// SaveGlobal implements Sink. After finalize the scannable buffer is the
// state.
func (s *FlatAggSink) SaveGlobal(gs GlobalState, enc *vector.Encoder) error {
	gs.(*flatAggState).buf.Save(enc)
	return enc.Err()
}

// LoadGlobal implements Sink.
func (s *FlatAggSink) LoadGlobal(gs GlobalState, dec *vector.Decoder) error {
	buf, err := loadRowBufferOf(dec, s.outTypes)
	if err != nil {
		return err
	}
	gs.(*flatAggState).buf = buf
	return nil
}

// SaveLocal implements Sink.
func (s *FlatAggSink) SaveLocal(ls LocalState, enc *vector.Encoder) error {
	s.saveTable(enc, ls.(*flatAggLocal).table)
	return enc.Err()
}

// LoadLocal implements Sink.
func (s *FlatAggSink) LoadLocal(_ GlobalState, dec *vector.Decoder) (LocalState, error) {
	t, err := s.loadTable(dec)
	if err != nil {
		return nil, err
	}
	return s.newLocal(t), nil
}

// MemBytes implements Sink.
func (s *FlatAggSink) MemBytes(gs GlobalState) int64 {
	g := gs.(*flatAggState)
	var b int64
	if g.table != nil {
		b += g.table.memBytes()
	}
	if g.buf != nil {
		b += g.buf.MemBytes()
	}
	return b
}

// LocalMemBytes implements Sink.
func (s *FlatAggSink) LocalMemBytes(ls LocalState) int64 {
	return ls.(*flatAggLocal).table.memBytes()
}
