package engine

import (
	"fmt"
	"math"
	"slices"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

// Pipeline is one executable pipeline: a source, a chain of streaming
// operators, and a sink (the pipeline breaker ending it).
type Pipeline struct {
	ID    int
	Label string

	Source Source
	Ops    []StreamOp
	Sink   Sink

	// Deps are pipeline IDs that must be finalized before this pipeline can
	// run (its source scans their sinks, or its probes or its mark sink
	// address them).
	Deps []int

	// Ordered marks a pipeline whose source rows carry an order its sink hands
	// on: it scans a sort's (or top-N's) finalized buffer into a collector —
	// the result or a limit. Morsels are claimed by whichever
	// worker is free but worker-locals are combined in assignment order, so
	// with two workers morsels {0,2} and {1} would come out 0,2,1. The
	// scheduler therefore never gives such a pipeline a second worker; it
	// copies finished rows, so there is nothing to win by it. A pipeline that
	// feeds sorted rows to an aggregate, a sort or a join build is not
	// Ordered: those sinks do not care what order they are fed in.
	Ordered bool
}

// PhysicalPlan is the compiled, executable form of a logical plan: pipelines
// in a valid execution order (every pipeline appears after its Deps), the
// last one sinking into the result collector. A plan is a value: its sinks
// and operators only describe the work, and each executor keeps its own run
// state, so any number of executors may run one plan, in turn or at once.
type PhysicalPlan struct {
	Pipelines   []*Pipeline
	OutSchema   *catalog.Schema
	Fingerprint uint64
	Root        plan.Node
}

// ScanSharer rewrites base-table scan sources onto shared morsel streams.
// Share receives the private source a scan would have used and returns the
// source to run instead — typically a rider on a per-(table, column-set)
// hub (see internal/fold). The returned source must preserve ReadMorsel's
// random-access determinism: it is only a different way to read the same
// morsels, so the pipeline shape, the checkpoint format, and the result
// bytes are identical with and without sharing.
type ScanSharer interface {
	Share(table string, proj []int, src Source) Source
}

// CompileOptions tune physical plan lowering.
type CompileOptions struct {
	// ScanShare, when non-nil, routes base-table scans through shared
	// morsel streams. Shape-neutral: safe on every compile, including
	// checkpoint restores (a restored rider rejoins its hub mid-stream).
	ScanShare ScanSharer
}

type compiler struct {
	cat   *catalog.Catalog
	opts  CompileOptions
	pipes []*Pipeline
	// memo shares materialized breakers across references to the same plan
	// node: a subplan appearing several times (Q15's revenue view, say)
	// executes once, and every consumer scans the one global state an
	// execution keeps for its pipeline. Beyond
	// the saved work, sharing makes repeated references bit-identical — two
	// independent executions of a float aggregation may differ in the last
	// ulp depending on how morsels were partitioned across workers. The key
	// is the node pointer alone, so the pipeline shape never depends on
	// ScanShare.
	memo map[plan.Node]*memoEntry
	// transfers is the predicate transfer planned for the plan, and builds
	// the build sink and pipeline each lowered join got, for the aggregate
	// a transfer filters to find its source in (nil without transfers).
	transfers transferPlan
	builds    map[*plan.Join]loweredBuild
}

// loweredBuild is the build sink of a lowered join and its pipeline.
type loweredBuild struct {
	sink *HashJoinBuildSink
	id   int
}

// memoEntry records one materialized breaker available for reuse.
type memoEntry struct {
	src     *SinkSource
	label   string
	ordered bool // carriesOrder of the node it materializes
}

// carriesOrder reports whether the rows breaker node n materializes are in
// an order its consumers must preserve: a sort's output, and whatever a
// limit, filter or projection passes through from one.
func carriesOrder(n plan.Node) bool {
	switch n.(type) {
	case *plan.Sort:
		return true
	case *plan.Limit, *plan.Filter, *plan.Project, *plan.Rename:
		return carriesOrder(n.Children()[0])
	}
	return false
}

// CompileWith lowers a logical plan into pipelines. It first drops the
// columns nothing reads (plan.Prune), then lowers what is left; the
// physical plan keeps root's fingerprint and root itself, so a checkpoint
// names the plan as written and estimates read it. Pipelines are emitted
// bottom-up, so the slice order is already a valid sequential schedule.
// Every expression in the plan is compiled to its program here, so an
// ill-typed one fails the compile, before a morsel is read.
func CompileWith(root plan.Node, cat *catalog.Catalog, opts CompileOptions) (*PhysicalPlan, error) {
	return lower(root, plan.Prune(root), cat, opts)
}

// lower lowers run, which computes root's result, into the physical plan
// of root.
func lower(root, run plan.Node, cat *catalog.Catalog, opts CompileOptions) (*PhysicalPlan, error) {
	return lowerWith(root, run, cat, opts, planTransfers(run, cat))
}

// lowerWith is lower with the predicate transfer tp, which planTransfers
// plans for run; the zero transferPlan lowers run without any.
func lowerWith(root, run plan.Node, cat *catalog.Catalog, opts CompileOptions, tp transferPlan) (*PhysicalPlan, error) {
	c := &compiler{cat: cat, opts: opts, memo: make(map[plan.Node]*memoEntry), transfers: tp}
	if tp.filters != nil {
		c.builds = make(map[*plan.Join]loweredBuild)
	}
	final := &Pipeline{Label: "result"}
	types, err := c.compile(run, final)
	if err != nil {
		return nil, err
	}
	final.Sink = NewCollectorSink(types, -1)
	c.register(final)
	return &PhysicalPlan{
		Pipelines:   c.pipes,
		OutSchema:   root.Schema(),
		Fingerprint: plan.Fingerprint(root),
		Root:        root,
	}, nil
}

func (c *compiler) register(p *Pipeline) {
	if _, keepsOrder := p.Sink.(*CollectorSink); !keepsOrder {
		p.Ordered = false
	}
	p.ID = len(c.pipes)
	c.pipes = append(c.pipes, p)
}

// compile lowers node n into pipeline p, setting p's source and appending
// streaming operators. It returns the column types flowing out of the chain.
func (c *compiler) compile(n plan.Node, p *Pipeline) ([]vector.Type, error) {
	switch t := n.(type) {
	case *plan.Scan:
		tbl, err := c.cat.Table(t.Table)
		if err != nil {
			return nil, err
		}
		src := NewTableSource(tbl, t.Projection)
		if c.opts.ScanShare != nil {
			// Predicates stay rider-side (the filter op below survives), so
			// every predicate is trivially fold-compatible: hubs group by
			// (table, column-set) only and stream unfiltered morsels.
			p.Source = c.opts.ScanShare.Share(t.Table, t.Projection, src)
		} else {
			p.Source = src
		}
		p.Label = appendLabel(p.Label, "scan("+t.Table+")")
		types := src.OutTypes()
		if t.Filter != nil {
			return types, c.filter(p, t.Filter, types)
		}
		return types, nil

	case *plan.Filter:
		types, err := c.compile(t.Child, p)
		if err != nil {
			return nil, err
		}
		return types, c.filter(p, t.Cond, types)

	case *plan.Project:
		if j, ok := t.Child.(*plan.Join); ok {
			return c.projectJoin(t, j, p)
		}
		inTypes, err := c.compile(t.Child, p)
		if err != nil {
			return nil, err
		}
		return c.project(p, t.Exprs, inTypes)

	case *plan.Rename:
		return c.compile(t.Child, p)

	case *plan.Join:
		if marksBuild(t.Type) {
			return c.markJoin(t, p, nil, t)
		}
		return c.join(t, p, nil)

	case *plan.Aggregate:
		if e := c.memo[n]; e != nil {
			return c.scanShared(p, e), nil
		}
		cp := &Pipeline{}
		inTypes, err := c.compile(t.Child, cp)
		if err != nil {
			return nil, err
		}
		if tr, ok := c.transfers.filters[t]; ok {
			if err := c.keyFilter(cp, tr, inTypes); err != nil {
				return nil, err
			}
		}
		outTypes := t.Schema().Types()
		sink, err := NewFlatAggSink(t.GroupBy, t.Aggs, outTypes)
		if err != nil {
			return nil, err
		}
		cp.Sink = sink
		cp.Label = appendLabel(cp.Label, "aggregate")
		c.register(cp)
		return c.scanShared(p, c.remember(n, cp.ID, sink, outTypes, "scan(agg)")), nil

	case *plan.Sort:
		if e := c.memo[n]; e != nil {
			return c.scanShared(p, e), nil
		}
		cp := &Pipeline{}
		inTypes, err := c.compile(t.Child, cp)
		if err != nil {
			return nil, err
		}
		sink, err := NewSortSink(t.Keys, inTypes)
		if err != nil {
			return nil, err
		}
		cp.Sink = sink
		cp.Label = appendLabel(cp.Label, "sort")
		c.register(cp)
		return c.scanShared(p, c.remember(n, cp.ID, sink, inTypes, "scan(sorted)")), nil

	case *plan.Limit:
		if e := c.memo[n]; e != nil {
			return c.scanShared(p, e), nil
		}
		if srt, ok := t.Child.(*plan.Sort); ok {
			// Fuse ORDER BY + LIMIT into a top-N breaker.
			cp := &Pipeline{}
			inTypes, err := c.compile(srt.Child, cp)
			if err != nil {
				return nil, err
			}
			sink, err := NewTopNSink(srt.Keys, inTypes, t.N, t.Offset)
			if err != nil {
				return nil, err
			}
			cp.Sink = sink
			cp.Label = appendLabel(cp.Label, fmt.Sprintf("topn(%d)", t.N))
			c.register(cp)
			return c.scanShared(p, c.remember(n, cp.ID, sink, inTypes, "scan(topn)")), nil
		}
		// Standalone limit: materialize the child with a row cap.
		cp := &Pipeline{}
		inTypes, err := c.compile(t.Child, cp)
		if err != nil {
			return nil, err
		}
		sink := NewCollectorSink(inTypes, t.Offset+t.N)
		sink.OffsetRows = t.Offset
		cp.Sink = sink
		cp.Label = appendLabel(cp.Label, fmt.Sprintf("limit(%d)", t.N))
		c.register(cp)
		return c.scanShared(p, c.remember(n, cp.ID, sink, inTypes, "scan(limit)")), nil

	default:
		return nil, fmt.Errorf("engine: cannot compile %T", n)
	}
}

// join lowers join t, but for a right-semi or right-anti one: its build
// side into a pipeline of its own, and its probe continuing pipeline p,
// emitting the columns out of its output (all of them when out is nil).
// A join whose build side holds an aggregate that a build of its probe
// side filters (predicate transfer) lowers its probe side first, so that
// build is lowered before the aggregate.
func (c *compiler) join(t *plan.Join, p *Pipeline, out []int) ([]vector.Type, error) {
	var (
		build   *HashJoinBuildSink
		buildID int
		ltypes  []vector.Type
		err     error
	)
	if c.transfers.probeFirst[t] {
		if ltypes, err = c.compile(t.Left, p); err == nil {
			build, buildID, err = c.joinBuild(t, out)
		}
	} else if build, buildID, err = c.joinBuild(t, out); err == nil {
		ltypes, err = c.compile(t.Left, p)
	}
	if err != nil {
		return nil, err
	}
	probe, err := NewHashJoinProbeOp(build, buildID, t.LeftKeys, ltypes)
	if err != nil {
		return nil, err
	}
	p.Ops = append(p.Ops, probe)
	p.Deps = append(p.Deps, buildID)
	p.Label = appendLabel(p.Label, fmt.Sprintf("probe(%s)", t.Type))
	return probe.OutTypes(), nil
}

// projectJoin lowers projection t over join j as one: the join emits only
// the columns t reads, so a projection of columns alone is no operator at
// all, and one computing more is evaluated over those columns.
func (c *compiler) projectJoin(t *plan.Project, j *plan.Join, p *Pipeline) ([]vector.Type, error) {
	reads, err := readColumns(t.Exprs, j.Schema().Arity())
	if err != nil {
		return nil, err
	}
	if len(reads) == 0 {
		reads = []int{0} // constants only: the join's rows still count
	}
	var types []vector.Type
	if marksBuild(j.Type) {
		types, err = c.markJoin(j, p, reads, t)
	} else {
		types, err = c.join(j, p, reads)
	}
	if err != nil {
		return nil, err
	}
	exprs, err := remapOnto(t.Exprs, reads)
	if err != nil {
		return nil, err
	}
	if len(exprs) == len(reads) {
		identity := true
		for i, e := range exprs {
			col, ok := e.(*expr.Column)
			identity = identity && ok && col.Index == i && col.Typ == types[i]
		}
		if identity {
			return types, nil
		}
	}
	return c.project(p, exprs, types)
}

// project appends the projection computing exprs over the chain's columns
// of types. A filter right before it becomes one operator with it, which
// gathers the rows that pass of only the columns exprs read.
func (c *compiler) project(p *Pipeline, exprs []expr.Expr, types []vector.Type) ([]vector.Type, error) {
	var pred *expr.Selection
	var gather []int
	if n := len(p.Ops); n > 0 {
		if f, ok := p.Ops[n-1].(*FusedOp); ok && f.projs == nil {
			pred = f.pred
			p.Ops = p.Ops[:n-1]
			reads, err := readColumns(exprs, len(types))
			if err != nil {
				return nil, err
			}
			if len(reads) > 0 && len(reads) < len(types) {
				if exprs, err = remapOnto(exprs, reads); err != nil {
					return nil, err
				}
				gather = reads
			}
		}
	}
	progs, err := compilePrograms(exprs)
	if err != nil {
		return nil, err
	}
	op := NewFusedOp(pred, progs, gather, types)
	p.Ops = append(p.Ops, op)
	return op.OutTypes(), nil
}

// readColumns returns the columns of a width-column input that exprs
// read, ascending.
func readColumns(exprs []expr.Expr, width int) ([]int, error) {
	read := make([]bool, width)
	for _, e := range exprs {
		if _, err := expr.RemapColumns(e, func(i int) (int, error) {
			if i < 0 || i >= width {
				return 0, fmt.Errorf("engine: expression reads column %d of %d", i, width)
			}
			read[i] = true
			return i, nil
		}); err != nil {
			return nil, err
		}
	}
	var cols []int
	for i, ok := range read {
		if ok {
			cols = append(cols, i)
		}
	}
	return cols, nil
}

// remapOnto rewrites exprs, over an input, onto the columns cols of it:
// column cols[k] becomes column k.
func remapOnto(exprs []expr.Expr, cols []int) ([]expr.Expr, error) {
	out := make([]expr.Expr, len(exprs))
	for i, e := range exprs {
		var err error
		if out[i], err = expr.RemapColumns(e, func(j int) (int, error) {
			if k := slices.Index(cols, j); k >= 0 {
				return k, nil
			}
			return 0, fmt.Errorf("engine: column %d is not among %v", j, cols)
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// joinBuild compiles join t's build side, its right input, into a
// pipeline of its own ending in the build sink, which stores what the
// join's output columns out need (nil: all of them).
func (c *compiler) joinBuild(t *plan.Join, out []int) (*HashJoinBuildSink, int, error) {
	bp := &Pipeline{}
	rtypes, err := c.compile(t.Right, bp)
	if err != nil {
		return nil, 0, err
	}
	build, err := NewHashJoinBuildSink(t.Type, t.RightKeys, t.Extra, t.Left.Schema().Arity(), rtypes, out)
	if err != nil {
		return nil, 0, err
	}
	bp.Sink = build
	bp.Label = appendLabel(bp.Label, fmt.Sprintf("build(%s)", t.Type))
	c.register(bp)
	if c.builds != nil {
		c.builds[t] = loweredBuild{sink: build, id: bp.ID}
	}
	return build, bp.ID, nil
}

// markJoin lowers a right-semi or right-anti join into three pipelines:
// the right input into the build sink, the left input into the mark sink,
// and pipeline p scanning the columns out (nil: all) of the build rows the
// mark sink keeps. The breaker is memoized under key: the join, or the
// projection lowered with it.
func (c *compiler) markJoin(t *plan.Join, p *Pipeline, out []int, key plan.Node) ([]vector.Type, error) {
	if e := c.memo[key]; e != nil {
		return c.scanShared(p, e), nil
	}
	build, buildID, err := c.joinBuild(t, out)
	if err != nil {
		return nil, err
	}
	mp := &Pipeline{}
	ltypes, err := c.compile(t.Left, mp)
	if err != nil {
		return nil, err
	}
	sink, err := NewHashJoinMarkSink(build, buildID, t.LeftKeys, ltypes)
	if err != nil {
		return nil, err
	}
	mp.Sink = sink
	mp.Deps = append(mp.Deps, buildID)
	mp.Label = appendLabel(mp.Label, fmt.Sprintf("mark(%s)", t.Type))
	c.register(mp)
	return c.scanShared(p, c.remember(key, mp.ID, sink, sink.OutTypes(), fmt.Sprintf("scan(%s)", t.Type))), nil
}

// remember memoizes a freshly registered breaker for reuse.
func (c *compiler) remember(n plan.Node, id int, sink BufferedSink, types []vector.Type, label string) *memoEntry {
	e := &memoEntry{src: NewSinkSource(sink, id, types), label: label, ordered: carriesOrder(n)}
	c.memo[n] = e
	return e
}

// scanShared points pipeline p at a materialized breaker's finalized buffer.
func (c *compiler) scanShared(p *Pipeline, e *memoEntry) []vector.Type {
	p.Source = e.src
	p.Ordered = e.ordered
	p.Deps = append(p.Deps, e.src.from)
	p.Label = appendLabel(p.Label, e.label)
	return e.src.types
}

// filter appends the operator keeping the rows where cond is true.
func (c *compiler) filter(p *Pipeline, cond expr.Expr, types []vector.Type) error {
	pred, err := expr.CompileSelection(cond)
	if err != nil {
		return err
	}
	p.Ops = append(p.Ops, NewFusedOp(pred, nil, nil, types))
	return nil
}

func appendLabel(cur, add string) string {
	if cur == "" {
		return add
	}
	return cur + "->" + add
}

// Predicate transfer, one hop (DESIGN §3). A grouped aggregate that feeds
// an inner or semi join on its group keys reaches the join's output only
// with the groups whose keys a build the join already depends on holds:
// (A) the join's own build, when the aggregate is its probe side, or
// (B) a build its probe side's rows have passed on the equated columns,
// when the aggregate is its build side. The aggregate's pipeline then
// waits for that build (a Deps edge) and probes its index before the sink
// with a semi HashJoinProbeOp, the key filter. The filter reads bare
// group-by columns only, so it keeps or drops whole groups, and each kept
// group is fed the rows it was fed without it, in the same order.

// transferPlan is the predicate transfer planned for one plan; its maps
// are nil until a transfer is planned.
type transferPlan struct {
	filters map[*plan.Aggregate]transfer
	// probeFirst holds the joins of shape (B): their probe side lowers
	// the build that filters their build side's aggregate.
	probeFirst map[*plan.Join]bool
}

// transfer is one aggregate's filter: the join whose build it probes, and
// the aggregate input's columns it probes with, one per build key.
type transfer struct {
	source *plan.Join
	keys   []expr.Expr
}

// planTransfers plans a transfer for every grouped aggregate of run that
// nothing but an inner or semi join reads, through Rename, Filter and
// bare-column Project nodes nothing else reads either, when that join's
// keys on the aggregate's side are all bare group-by columns and a scan
// bounds a source's build keys below the aggregate's input rows, by the
// plan's estimates.
func planTransfers(run plan.Node, cat *catalog.Catalog) transferPlan {
	// paths counts the paths from run's root to each node: a node read by
	// two parents, or one below such a node, is reached by more than one.
	paths := make(map[plan.Node]int)
	var joins []*plan.Join
	plan.Walk(run, func(n plan.Node) {
		paths[n]++
		if j, ok := n.(*plan.Join); ok && paths[n] == 1 && (j.Type == plan.InnerJoin || j.Type == plan.SemiJoin) {
			joins = append(joins, j)
		}
	})
	var tp transferPlan
	add := func(agg *plan.Aggregate, tr transfer) {
		if tp.filters == nil {
			tp.filters = make(map[*plan.Aggregate]transfer)
		}
		tp.filters[agg] = tr
	}
	for _, j := range joins {
		if agg, keys := groupKeys(paths, j.Left, j.LeftKeys); agg != nil {
			if transfers(agg, j, keys, cat) {
				add(agg, transfer{source: j, keys: keys})
			}
			continue
		}
		agg, keys := groupKeys(paths, j.Right, j.RightKeys)
		if agg == nil {
			continue
		}
		probesPassed(j.Left, bareColumns(j.LeftKeys), func(s *plan.Join, cols []int) bool {
			// ks[k] is the aggregate input column equated with s's key k.
			ks := make([]expr.Expr, len(s.LeftKeys))
			for k, key := range s.LeftKeys {
				c, ok := key.(*expr.Column)
				if !ok || c.Index < 0 || slices.Index(cols, c.Index) < 0 {
					return false
				}
				ks[k] = keys[slices.Index(cols, c.Index)]
			}
			if !transfers(agg, s, ks, cat) {
				return false
			}
			add(agg, transfer{source: s, keys: ks})
			if tp.probeFirst == nil {
				tp.probeFirst = make(map[*plan.Join]bool)
			}
			tp.probeFirst[j] = true
			return true
		})
	}
	return tp
}

// transfers reports whether source's build may filter agg's input on its
// columns keys: their types are the build keys' types, and a scan bounds
// the build's keys below agg's input rows, by the plan's estimates.
func transfers(agg *plan.Aggregate, source *plan.Join, keys []expr.Expr, cat *catalog.Catalog) bool {
	for k, key := range keys {
		if key.Type() != source.RightKeys[k].Type() {
			return false
		}
	}
	return keyBound(source, cat) < plan.EstimateRows(agg.Child, cat)
}

// keyBound bounds the values of join j's build keys by a scan's estimated
// rows: its build side's, when that is a scan, or the build side's of an
// inner or semi join a bare key column passed on j's build side, when that
// is a scan. It is +Inf where no scan bounds them: an aggregate's estimate
// is a flat share of its input, not a count of its groups, so a build fed
// by one would always look selective.
func keyBound(j *plan.Join, cat *catalog.Catalog) float64 {
	bound := scanRows(j.Right, cat)
	probesPassed(j.Right, bareColumns(j.RightKeys), func(s *plan.Join, cols []int) bool {
		for _, key := range s.LeftKeys {
			if c, ok := key.(*expr.Column); ok && c.Index >= 0 && slices.Contains(cols, c.Index) {
				bound = min(bound, scanRows(s.Right, cat))
			}
		}
		return false
	})
	return bound
}

// scanRows is the plan's estimate of n's rows when n is a scan under
// Filter, Rename and Project nodes only, and +Inf otherwise.
func scanRows(n plan.Node, cat *catalog.Catalog) float64 {
	for m := n; ; {
		switch t := m.(type) {
		case *plan.Filter:
			m = t.Child
		case *plan.Rename:
			m = t.Child
		case *plan.Project:
			m = t.Child
		case *plan.Scan:
			return plan.EstimateRows(n, cat)
		default:
			return math.Inf(1)
		}
	}
}

// bareColumns returns the column each of keys is, or nil unless all are
// bare columns.
func bareColumns(keys []expr.Expr) []int {
	cols := make([]int, len(keys))
	for i, k := range keys {
		c, ok := k.(*expr.Column)
		if !ok || c.Index < 0 {
			return nil
		}
		cols[i] = c.Index
	}
	return cols
}

// groupKeys follows keys, bare columns of n, down through Rename, Filter
// and bare-column Project nodes to a grouped aggregate, where each must be
// a bare group-by column, and returns the aggregate and those columns of
// its input. Every node on the way, the aggregate included, must be
// reached by one path (paths); otherwise, and on any other node, it
// returns nil.
func groupKeys(paths map[plan.Node]int, n plan.Node, keys []expr.Expr) (*plan.Aggregate, []expr.Expr) {
	cols := bareColumns(keys)
	for cols != nil && paths[n] == 1 {
		switch t := n.(type) {
		case *plan.Rename:
			n = t.Child
		case *plan.Filter:
			n = t.Child
		case *plan.Project:
			for i, c := range cols {
				if c >= len(t.Exprs) {
					return nil, nil
				}
				col, ok := t.Exprs[c].(*expr.Column)
				if !ok || col.Index < 0 {
					return nil, nil
				}
				cols[i] = col.Index
			}
			n = t.Child
		case *plan.Aggregate:
			in := make([]expr.Expr, len(cols))
			for i, c := range cols {
				if c >= len(t.GroupBy) {
					return nil, nil
				}
				if _, ok := t.GroupBy[c].(*expr.Column); !ok {
					return nil, nil
				}
				in[i] = t.GroupBy[c]
			}
			return t, in
		default:
			return nil, nil
		}
	}
	return nil, nil
}

// probesPassed walks n's probe spine — Filter, Rename and bare-column
// Project nodes, and the probe sides of joins — carrying cols, columns of
// n, down with it; a column a projection computes, or a join takes from
// its build side, becomes -1. At every inner or semi join on the way it
// calls visit with cols over that join's probe input, and stops when
// visit returns true.
func probesPassed(n plan.Node, cols []int, visit func(j *plan.Join, cols []int) bool) {
	for cols != nil {
		switch t := n.(type) {
		case *plan.Filter:
			n = t.Child
		case *plan.Rename:
			n = t.Child
		case *plan.Project:
			for i, c := range cols {
				if c >= 0 {
					cols[i] = -1
					if c >= len(t.Exprs) {
						continue
					}
					if col, ok := t.Exprs[c].(*expr.Column); ok && col.Index >= 0 {
						cols[i] = col.Index
					}
				}
			}
			n = t.Child
		case *plan.Join:
			if marksBuild(t.Type) {
				return
			}
			for i, c := range cols {
				if c >= t.Left.Schema().Arity() {
					cols[i] = -1
				}
			}
			if (t.Type == plan.InnerJoin || t.Type == plan.SemiJoin) && visit(t, cols) {
				return
			}
			n = t.Left
		default:
			return
		}
	}
}

// keyFilter appends to aggregate pipeline p, over the chain's columns of
// types, the filter tr plans, and its wait for the source build. The
// filter is a semi probe of the source build on bare columns of types: it
// reads no residual, and outputs the rows as they are.
func (c *compiler) keyFilter(p *Pipeline, tr transfer, types []vector.Type) error {
	b, ok := c.builds[tr.source]
	if !ok {
		return fmt.Errorf("engine: the build of %s filters an aggregate lowered before it", tr.source)
	}
	if len(tr.keys) != len(b.sink.keyTypes) {
		return fmt.Errorf("key filter of %d keys for a build of %d", len(tr.keys), len(b.sink.keyTypes))
	}
	for k, key := range tr.keys {
		if col, ok := key.(*expr.Column); !ok || col.Index < 0 || col.Index >= len(types) || col.Typ != types[col.Index] || col.Typ != b.sink.keyTypes[k] {
			return fmt.Errorf("key filter key %s over %v for a build key of %v", key, types, b.sink.keyTypes[k])
		}
	}
	progs, err := compilePrograms(tr.keys)
	if err != nil {
		return err
	}
	out := make([]int, len(types))
	for i := range out {
		out[i] = i
	}
	p.Ops = append(p.Ops, &HashJoinProbeOp{
		joinProber: joinProber{build: b.sink, buildID: b.id, keyProgs: progs, probeTypes: types},
		Type:       plan.SemiJoin,
		outCols:    out,
		outTypes:   types,
		whole:      true,
	})
	p.Deps = append(p.Deps, b.id)
	p.Label = appendLabel(p.Label, "keyfilter")
	return nil
}
