package engine

import (
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/vector"
)

// StreamOp is a non-blocking operator inside a pipeline. Its push function
// may emit zero or more output chunks per input chunk. Implementations must
// be stateless across chunks (probe operators read the immutable global
// state of their build pipeline), which is what makes morsel-boundary
// suspension state-free above the sinks.
//
// Operator instances are part of the plan, shared by every worker of every
// execution, so per-call scratch (program instances, output chunks) lives
// in a sync.Pool on the operator. Reusing an emitted chunk on the next call
// is sound because emitted chunks are never retained downstream: sinks copy
// rows out on Consume (the source chunk in runWorker is itself reused every
// morsel, which forces that discipline on the whole chain).
//
// The push function treats its input as read-only: a source's chunk
// aliases the base table or a finalized sink buffer (Source), and an
// emitted chunk may alias it in turn. An operator writes only into chunks
// and registers it owns.
type StreamOp interface {
	// Bind returns the operator's push function into emit for one worker
	// of an execution: an operator reading a finished pipeline's state
	// takes it from the execution's states here, not per morsel.
	Bind(states []GlobalState, emit func(*vector.Chunk) error) func(*vector.Chunk) error
	// OutTypes returns the operator's output column types.
	OutTypes() []vector.Type
}

// compilePrograms compiles each expression; operators and sinks evaluate
// nothing else. A nil expression (an aggregate without an argument) keeps a
// nil program, and from there a nil instance and a nil vector.
func compilePrograms(exprs []expr.Expr) ([]*expr.Program, error) {
	progs := make([]*expr.Program, len(exprs))
	for i, e := range exprs {
		if e == nil {
			continue
		}
		p, err := expr.CompileProgram(e)
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	return progs, nil
}

// newInstances builds one worker's register sets for progs.
func newInstances(progs []*expr.Program) []*expr.Instance {
	insts := make([]*expr.Instance, len(progs))
	for i, p := range progs {
		if p != nil {
			insts[i] = p.NewInstance()
		}
	}
	return insts
}

// evalInstances evaluates every instance over c into out. The vectors are
// valid until the instances' next evaluation.
func evalInstances(insts []*expr.Instance, c *vector.Chunk, out []*vector.Vector) error {
	for i, in := range insts {
		if in == nil {
			continue
		}
		v, err := in.Eval(c)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}
