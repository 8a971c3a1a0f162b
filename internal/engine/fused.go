package engine

import (
	"sync"

	"github.com/riveterdb/riveter/internal/engine/kernel"
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/vector"
)

// FusedOp is the streaming filter, projection, or filter followed by
// projection (fusePipelineOps merges the pair): rows where the predicate is
// true pass (NULL counts as false), and each projection computes one output
// column. The predicate and projection expressions are compiled columnar
// programs (internal/expr.Program), so one morsel flows through the whole
// stage as typed slices: the predicate evaluates into a reusable register,
// kernel.SelectTrue builds a selection vector, surviving rows are gathered
// once, and each projection evaluates into its own register that the output
// chunk aliases without copying.
//
// Emitted chunks alias program registers and, for passthrough columns, input
// columns. That is safe under the engine-wide contract that emitted chunks
// are never retained downstream (sinks copy rows out on Consume) — the
// registers are not reused until the next Process call on the same scratch.
type FusedOp struct {
	pred     *expr.Program   // nil = no filter stage
	projs    []*expr.Program // nil = passthrough (filter only)
	inTypes  []vector.Type
	outTypes []vector.Type
	scratch  sync.Pool // *fusedScratch; ops are shared across workers
}

// fusedScratch is the per-worker mutable state of a FusedOp: program
// instances (whose registers carry intermediate vectors), the selection
// vector, and the reusable gather/output chunks.
type fusedScratch struct {
	pred     *expr.Instance
	projs    []*expr.Instance
	sel      []int32
	gathered *vector.Chunk // survivors of a partial selection, in input types
	out      *vector.Chunk // projection output; cols alias registers
}

// NewFusedOp builds a fused filter/project operator. pred may be nil (pure
// projection), projs may be nil (pure filter); at least one must be set.
func NewFusedOp(pred *expr.Program, projs []*expr.Program, inTypes []vector.Type) *FusedOp {
	outTypes := inTypes
	if projs != nil {
		outTypes = make([]vector.Type, len(projs))
		for i, p := range projs {
			outTypes[i] = p.OutType()
		}
	}
	o := &FusedOp{pred: pred, projs: projs, inTypes: inTypes, outTypes: outTypes}
	o.scratch.New = func() any {
		s := &fusedScratch{}
		if pred != nil {
			s.pred = pred.NewInstance()
			s.gathered = vector.NewChunk(inTypes)
		}
		if projs != nil {
			s.projs = newInstances(projs)
			s.out = vector.NewChunk(outTypes)
		}
		return s
	}
	return o
}

// OutTypes returns the output column types.
func (o *FusedOp) OutTypes() []vector.Type { return o.outTypes }

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
		pv, err := s.pred.Eval(in)
		if err != nil {
			return err
		}
		s.sel = kernel.SelectTrue(pv.Bools(), pv.NullWords(), n, s.sel)
		m := len(s.sel)
		if m == 0 {
			return nil
		}
		if m < n {
			gatherChunk(s.gathered, in, s.sel)
			src = s.gathered
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
	gatherCols(dst.Cols(), src.Cols(), sel)
	dst.SetLen(len(sel))
}

// gatherCols gathers the selected rows of each src column into the dst
// column at the same index. Null backing stays zero because the source
// columns uphold the zero-backing-under-null invariant and gathers copy
// backing verbatim.
func gatherCols(dst, src []*vector.Vector, sel []int32) {
	m := len(sel)
	for j, sv := range src {
		dv := dst[j]
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
}
