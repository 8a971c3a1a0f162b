package engine

import (
	"sync"

	"github.com/riveterdb/riveter/internal/engine/kernel"
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/vector"
)

// FusedOp is the streaming filter, projection, or filter followed by
// projection (the lowering merges a projection into the filter before it):
// rows where the predicate is true pass (NULL counts as false), and each
// projection computes one output column. The predicate is a compiled
// selection (internal/expr.Selection) and the projections are compiled
// columnar programs (internal/expr.Program), so one morsel flows through
// the whole stage as typed slices: the predicate narrows a selection
// vector conjunct by conjunct, surviving rows are gathered once — of only
// the columns the projections read, when they read fewer than all — and
// each projection evaluates into its own register that the output chunk
// aliases without copying.
//
// Emitted chunks alias program registers and, for passthrough columns, input
// columns. That is safe under the engine-wide contract that emitted chunks
// are never retained downstream (sinks copy rows out on Consume) — the
// registers are not reused until the next Process call on the same scratch.
type FusedOp struct {
	pred     *expr.Selection // nil = no filter stage
	projs    []*expr.Program // nil = passthrough (filter only)
	gather   []int           // the input columns projs read, over which they run; nil = all
	inTypes  []vector.Type
	outTypes []vector.Type
	scratch  sync.Pool // *fusedScratch; ops are shared across workers
}

// fusedScratch is the per-worker mutable state of a FusedOp: selection and
// program instances (whose registers carry intermediate vectors), the
// selection vector, and the reusable gather/output chunks.
type fusedScratch struct {
	pred     *expr.SelectionInstance
	projs    []*expr.Instance
	sel      []int32
	gathered *vector.Chunk // survivors of a partial selection, of the gathered columns
	view     *vector.Chunk // with gather, the gathered columns of a morsel that all passes
	out      *vector.Chunk // projection output; cols alias registers
}

// NewFusedOp builds a fused filter/project operator. pred may be nil (pure
// projection), projs may be nil (pure filter); at least one must be set.
// gather, set only with both, lists the input columns the projections read;
// they are compiled over those columns, in that order.
func NewFusedOp(pred *expr.Selection, projs []*expr.Program, gather []int, inTypes []vector.Type) *FusedOp {
	outTypes := inTypes
	if projs != nil {
		outTypes = make([]vector.Type, len(projs))
		for i, p := range projs {
			outTypes[i] = p.OutType()
		}
	}
	gatherTypes := inTypes
	if gather != nil {
		gatherTypes = make([]vector.Type, len(gather))
		for i, c := range gather {
			gatherTypes[i] = inTypes[c]
		}
	}
	o := &FusedOp{pred: pred, projs: projs, gather: gather, inTypes: inTypes, outTypes: outTypes}
	o.scratch.New = func() any {
		s := &fusedScratch{}
		if pred != nil {
			s.pred = pred.NewInstance()
			s.gathered = vector.NewChunk(gatherTypes)
		}
		if gather != nil {
			s.view = vector.NewViewChunk(gatherTypes)
		}
		if projs != nil {
			s.projs = newInstances(projs)
			// Process points every column at a register or an input column.
			s.out = vector.NewViewChunk(outTypes)
		}
		return s
	}
	return o
}

// OutTypes returns the output column types.
func (o *FusedOp) OutTypes() []vector.Type { return o.outTypes }

// Bind implements StreamOp.
func (o *FusedOp) Bind(_ []GlobalState, emit func(*vector.Chunk) error) func(*vector.Chunk) error {
	return func(in *vector.Chunk) error { return o.Process(in, emit) }
}

// Process runs the fused stage over one morsel.
func (o *FusedOp) Process(in *vector.Chunk, emit func(*vector.Chunk) error) error {
	n := in.Len()
	if n == 0 {
		return nil
	}
	s := o.scratch.Get().(*fusedScratch)
	defer o.scratch.Put(s)
	src := in
	if o.pred != nil {
		sel, err := s.pred.Select(in, s.sel)
		if err != nil {
			return err
		}
		s.sel = sel
		m := len(sel)
		if m == 0 {
			return nil
		}
		switch {
		case m < n && o.gather == nil:
			gatherChunk(s.gathered, in, s.sel)
			src = s.gathered
		case m < n:
			for j, c := range o.gather {
				gatherCol(s.gathered.Col(j), in.Col(c), s.sel)
			}
			s.gathered.SetLen(m)
			src = s.gathered
		case o.gather != nil:
			for j, c := range o.gather {
				*s.view.Col(j) = *in.Col(c)
			}
			s.view.SetLen(n)
			src = s.view
		}
	}
	if o.projs == nil {
		return emit(src)
	}
	for j, inst := range s.projs {
		v, err := inst.Eval(src)
		if err != nil {
			return err
		}
		// Alias the register (or passthrough column) wholesale. The output
		// chunk's columns are always overwritten, never appended into, so
		// sharing backing with the source is safe.
		*s.out.Col(j) = *v
	}
	s.out.SetLen(src.Len())
	return emit(s.out)
}

// gatherChunk copies the selected rows of src into dst column by column with
// type-specialized gather kernels.
func gatherChunk(dst, src *vector.Chunk, sel []int32) {
	for j, sv := range src.Cols() {
		gatherCol(dst.Col(j), sv, sel)
	}
	dst.SetLen(len(sel))
}

// gatherCol gathers the selected rows of sv into dv. Null backing stays
// zero because the source columns uphold the zero-backing-under-null
// invariant and gathers copy backing verbatim.
func gatherCol(dv, sv *vector.Vector, sel []int32) {
	m := len(sel)
	switch sv.Type() {
	case vector.TypeInt64, vector.TypeDate:
		kernel.GatherInt64(dv.ResizeInt64(m), sv.Int64s(), sel)
	case vector.TypeFloat64:
		kernel.GatherFloat64(dv.ResizeFloat64(m), sv.Float64s(), sel)
	case vector.TypeString:
		kernel.GatherString(dv.ResizeString(m), sv.Strings(), sel)
	case vector.TypeBool:
		kernel.GatherBool(dv.ResizeBool(m), sv.Bools(), sel)
	}
	if sv.HasNulls() {
		kernel.GatherNullBits(dv.EnsureNullWords(m), sv.NullWords(), sel)
	}
}
