package plan

import (
	"fmt"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/expr"
)

// Prune returns a plan computing root's result in which every operator
// carries only the columns something above it reads. A scan reads only
// those columns and the ones its filter reads; a projection keeps only the
// expressions read above it; a join, a filter, a sort, and a scan whose
// filter reads columns nothing above it does, get a column-only projection
// above them, which the lowering folds into the operator below or the
// filter before it. A projection never gets one: its expressions are
// rewritten onto the node below the one the pass would have put there.
// Aggregates keep every group key and aggregate as written.
//
// A node two parents read is pruned once, to the union of what both read,
// and both get the same new node, so the lowering still shares the
// breakers under it. A node with nothing to drop comes back as it was, so
// pruning a pruned plan returns it unchanged. The result's schema is
// root's. A plan with a column reference out of its input's range, or a
// node type the pass does not know under which something would change, is
// returned as it is for the lowering to report or run.
func Prune(root Node) Node {
	var p pruner
	r := p.visit(root)
	p.need = make([]bool, p.width)
	p.keep = make([]bool, p.width)
	p.pos = make([]int, p.width)
	fill(p.span(r, p.need))
	// Post-order puts every node after all its inputs, so walking it
	// backwards settles what a node's parents need before the node passes
	// it on, and forwards rebuilds inputs before the nodes reading them.
	for i := len(p.nodes) - 1; i >= 0 && p.err == nil; i-- {
		p.pushDown(i)
	}
	for i := range p.nodes {
		if p.err != nil {
			return root
		}
		p.rebuild(i)
	}
	if p.err != nil {
		return root
	}
	return p.out(r)
}

// pruner is Prune's working set. Per-node column sets live in three flat
// arrays, each node owning the span [off, off+width) of them.
type pruner struct {
	nodes []pnode
	width int
	need  []bool // the columns of a node its parents read
	keep  []bool // the node's columns its rebuilt form (pnode.inner) outputs
	pos   []int  // a node's column -> its position in the rebuilt form's output
	err   error
}

// pnode is one distinct node of the plan.
type pnode struct {
	n          Node
	kids       [2]int
	nkids      int
	off, width int
	underLimit bool // a sort a limit reads: the pair lowers to one top-N
	inner      Node // n rebuilt over its rebuilt inputs
	wrap       bool // inner outputs more than its parents read (keep holds need)
	outer      Node // the projection above inner when wrap, built on first use
}

func (p *pruner) span(i int, a []bool) []bool {
	nd := &p.nodes[i]
	return a[nd.off : nd.off+nd.width]
}

// visit numbers n and the nodes under it in post-order, each distinct node
// once, and returns n's number. The search is linear: plans are a few dozen
// nodes.
func (p *pruner) visit(n Node) int {
	for i := range p.nodes {
		if p.nodes[i].n == n {
			return i
		}
	}
	nd := pnode{n: n}
	switch n.(type) {
	case *Scan, *Filter, *Project, *Join, *Aggregate, *Sort, *Limit, *Rename:
		for _, c := range n.Children() {
			nd.kids[nd.nkids] = p.visit(c)
			nd.nkids++
		}
	}
	nd.off, nd.width = p.width, n.Schema().Arity()
	p.width += nd.width
	p.nodes = append(p.nodes, nd)
	return len(p.nodes) - 1
}

// reads marks in dst the columns e reads, offset by -shift; columns below
// shift go to lo instead when lo is not nil.
func (p *pruner) reads(e expr.Expr, lo []bool, dst []bool, shift int) {
	if e == nil || p.err != nil {
		return
	}
	_, p.err = expr.RemapColumns(e, func(i int) (int, error) {
		switch {
		case i >= 0 && i < shift && lo != nil:
			lo[i] = true
		case i >= shift && i-shift < len(dst):
			dst[i-shift] = true
		default:
			return 0, fmt.Errorf("plan: column %d out of range", i)
		}
		return i, nil
	})
}

// pushDown adds what node i reads of its inputs to their need, given its
// own. A node nothing reads (COUNT(*) over it) still outputs a column, so
// that its rows are there to count: the ones its filter reads, or its
// first.
func (p *pruner) pushDown(i int) {
	nd := &p.nodes[i]
	need := p.span(i, p.need)
	if nd.width > 0 && count(need) == 0 {
		switch t := nd.n.(type) {
		case *Scan:
			p.reads(t.Filter, nil, need, 0)
		case *Filter:
			p.reads(t.Cond, nil, need, 0)
		}
		need[0] = need[0] || count(need) == 0
	}
	var kid [2][]bool
	for k := 0; k < nd.nkids; k++ {
		kid[k] = p.span(nd.kids[k], p.need)
	}
	switch t := nd.n.(type) {
	case *Filter:
		orInto(kid[0], need)
		p.reads(t.Cond, nil, kid[0], 0)
	case *Project:
		for j, e := range t.Exprs {
			if need[j] {
				p.reads(e, nil, kid[0], 0)
			}
		}
	case *Join:
		lw := len(kid[0])
		switch t.Type {
		case SemiJoin, AntiJoin:
			orInto(kid[0], need)
		case RightSemiJoin, RightAntiJoin:
			orInto(kid[1], need)
		default:
			orInto(kid[0], need[:lw])
			orInto(kid[1], need[lw:])
		}
		for k := range t.LeftKeys {
			p.reads(t.LeftKeys[k], nil, kid[0], 0)
			p.reads(t.RightKeys[k], nil, kid[1], 0)
		}
		p.reads(t.Extra, kid[0], kid[1], lw)
	case *Aggregate:
		for _, g := range t.GroupBy {
			p.reads(g, nil, kid[0], 0)
		}
		for _, a := range t.Aggs {
			p.reads(a.Arg, nil, kid[0], 0)
		}
	case *Sort:
		orInto(kid[0], need)
		for _, k := range t.Keys {
			p.reads(k.Expr, nil, kid[0], 0)
		}
	case *Limit:
		orInto(kid[0], need)
		if _, ok := t.Child.(*Sort); ok {
			p.nodes[nd.kids[0]].underLimit = true
		}
	case *Rename:
		orInto(kid[0], need)
	}
}

// input returns what a parent reads of node k and that node's columns in
// it: the node p puts above k when there is one, unless the parent is a
// projection (composed) and reads k's rebuilt form directly. It fills
// p.pos for k's span.
func (p *pruner) input(k int, composed bool) (Node, []bool) {
	nd := &p.nodes[k]
	cols := p.span(k, p.keep)
	n := nd.inner
	if nd.wrap && !composed {
		n, cols = p.out(k), p.span(k, p.need)
	}
	p.setPos(k, cols)
	return n, cols
}

// setPos fills p.pos for node k's span: each column marked in cols gets its
// position among them, the others -1.
func (p *pruner) setPos(k int, cols []bool) {
	nd := &p.nodes[k]
	pos := p.pos[nd.off : nd.off+nd.width]
	r := 0
	for j, ok := range cols {
		pos[j] = -1
		if ok {
			pos[j] = r
			r++
		}
	}
}

// out returns the node node i's parents read: its rebuilt form, under a
// column-only projection to what they read when it outputs more.
func (p *pruner) out(i int) Node {
	nd := &p.nodes[i]
	if !nd.wrap {
		return nd.inner
	}
	if nd.outer == nil {
		need, keep := p.span(i, p.need), p.span(i, p.keep)
		s := nd.n.Schema()
		var exprs []expr.Expr
		var names []string
		r := 0
		for j, k := range keep {
			if need[j] {
				c := s.Columns[j]
				exprs = append(exprs, expr.NamedCol(r, c.Type, c.Name))
				names = append(names, c.Name)
			}
			if k {
				r++
			}
		}
		nd.outer = NewProject(nd.inner, exprs, names)
	}
	return nd.outer
}

// remap rewrites e's column references from node k's columns to their
// positions in what its parent reads (after input(k, ...)).
func (p *pruner) remap(e expr.Expr, k int) expr.Expr {
	if e == nil || p.err != nil {
		return e
	}
	pos := p.pos[p.nodes[k].off:]
	out, err := expr.RemapColumns(e, func(i int) (int, error) { return pos[i], nil })
	if err != nil {
		p.err = err
	}
	return out
}

// rebuild sets node i's rebuilt form and whether it outputs more than its
// parents read, once every input has its own.
func (p *pruner) rebuild(i int) {
	nd := &p.nodes[i]
	need, keep := p.span(i, p.need), p.span(i, p.keep)
	nd.inner = nd.n
	switch t := nd.n.(type) {
	case *Scan:
		orInto(keep, need)
		p.reads(t.Filter, nil, keep, 0)
		nd.wrap = count(keep) > count(need)
		if count(keep) == len(keep) {
			break
		}
		proj := make([]int, 0, len(keep))
		for j, ok := range keep {
			if ok {
				proj = append(proj, t.Projection[j])
			}
		}
		p.setPos(i, keep)
		nd.inner = NewScan(t.Table, t.TableSchema, proj, p.remap(t.Filter, i))

	case *Filter:
		c, cols := p.input(nd.kids[0], false)
		copy(keep, cols)
		if cond := p.remap(t.Cond, nd.kids[0]); c != t.Child || cond != t.Cond {
			nd.inner = &Filter{Child: c, Cond: cond}
		}
		nd.wrap = count(keep) > count(need)

	case *Project:
		c, _ := p.input(nd.kids[0], true)
		copy(keep, need)
		exprs := make([]expr.Expr, 0, len(t.Exprs))
		names := make([]string, 0, len(t.Exprs))
		changed := c != t.Child
		for j, e := range t.Exprs {
			if !need[j] {
				changed = true
				continue
			}
			e2 := p.remap(e, nd.kids[0])
			changed = changed || e2 != e
			exprs = append(exprs, e2)
			names = append(names, t.Names[j])
		}
		if changed {
			nd.inner = NewProject(c, exprs, names)
		}

	case *Join:
		l, lcols := p.input(nd.kids[0], false)
		r, rcols := p.input(nd.kids[1], false)
		switch t.Type {
		case SemiJoin, AntiJoin:
			copy(keep, lcols)
		case RightSemiJoin, RightAntiJoin:
			copy(keep, rcols)
		default:
			copy(keep, lcols)
			copy(keep[len(lcols):], rcols)
		}
		lk, lchanged := p.remapAll(t.LeftKeys, nd.kids[0])
		rk, rchanged := p.remapAll(t.RightKeys, nd.kids[1])
		extra := t.Extra
		if extra != nil && p.err == nil {
			lw, lw2 := len(lcols), count(lcols)
			lpos, rpos := p.pos[p.nodes[nd.kids[0]].off:], p.pos[p.nodes[nd.kids[1]].off:]
			extra, p.err = expr.RemapColumns(extra, func(j int) (int, error) {
				if j < lw {
					return lpos[j], nil
				}
				return lw2 + rpos[j-lw], nil
			})
		}
		if l != t.Left || r != t.Right || lchanged || rchanged || extra != t.Extra {
			nd.inner = NewJoin(t.Type, l, r, lk, rk, extra)
		}
		nd.wrap = count(keep) > count(need)

	case *Aggregate:
		c, _ := p.input(nd.kids[0], false)
		fill(keep)
		gb, changed := p.remapAll(t.GroupBy, nd.kids[0])
		aggs, copied := t.Aggs, false
		for j, a := range t.Aggs {
			if arg := p.remap(a.Arg, nd.kids[0]); arg != a.Arg {
				if !copied {
					aggs, copied = append([]AggSpec(nil), t.Aggs...), true
				}
				aggs[j].Arg = arg
			}
		}
		if c != t.Child || changed || copied {
			nd.inner = NewAggregate(c, gb, t.GroupNames, aggs)
		}

	case *Sort:
		c, cols := p.input(nd.kids[0], false)
		copy(keep, cols)
		keys, changed := t.Keys, false
		for j, k := range t.Keys {
			if e := p.remap(k.Expr, nd.kids[0]); e != k.Expr {
				if !changed {
					keys = append([]SortKey(nil), t.Keys...)
					changed = true
				}
				keys[j].Expr = e
			}
		}
		if c != t.Child || changed {
			nd.inner = &Sort{Child: c, Keys: keys}
		}
		nd.wrap = !nd.underLimit && count(keep) > count(need)

	case *Limit:
		c, cols := p.input(nd.kids[0], false)
		copy(keep, cols)
		if c != t.Child {
			nd.inner = &Limit{Child: c, N: t.N, Offset: t.Offset}
		}
		_, sorted := t.Child.(*Sort)
		nd.wrap = sorted && count(keep) > count(need)

	case *Rename:
		c, cols := p.input(nd.kids[0], false)
		copy(keep, cols)
		if c != t.Child {
			nd.inner = &Rename{Child: c, out: projectSchema(t.out, keep)}
		}

	default:
		// Not descended into: it stays as it is, every column with it.
		fill(keep)
	}
}

// remapAll remaps each expression over node k and reports whether any
// changed; the slice is es itself when none did.
func (p *pruner) remapAll(es []expr.Expr, k int) ([]expr.Expr, bool) {
	out := es
	changed := false
	for j, e := range es {
		if e2 := p.remap(e, k); e2 != e {
			if !changed {
				out = append([]expr.Expr(nil), es...)
				changed = true
			}
			out[j] = e2
		}
	}
	return out, changed
}

// projectSchema returns the columns of s that keep marks.
func projectSchema(s *catalog.Schema, keep []bool) *catalog.Schema {
	idx := make([]int, 0, len(keep))
	for j, ok := range keep {
		if ok {
			idx = append(idx, j)
		}
	}
	return s.Project(idx)
}

func fill(a []bool) {
	for j := range a {
		a[j] = true
	}
}

func orInto(dst, src []bool) {
	for j, ok := range src {
		dst[j] = dst[j] || ok
	}
}

func count(a []bool) int {
	n := 0
	for _, ok := range a {
		if ok {
			n++
		}
	}
	return n
}
