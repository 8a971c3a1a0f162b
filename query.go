package riveter

import (
	"context"
	"errors"
	"fmt"

	"github.com/riveterdb/riveter/internal/costmodel"
	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/sql"
	"github.com/riveterdb/riveter/internal/strategy"
	"github.com/riveterdb/riveter/internal/tpch"
)

// Result is a fully materialized query result.
type Result = engine.ResultSet

// Query is a compiled query ready for (repeated) execution, immutable: its
// plan is lowered once, at Prepare, and every Run, Start and StartFrom runs
// that plan on an executor of its own, any number at once.
type Query struct {
	db   *DB
	name string
	pp   *engine.PhysicalPlan
}

// Prepare compiles a SQL statement (the supported subset covers
// select-project-join-aggregate-sort-limit; see internal/sql) into the
// plan its runs share: a statement that binds but cannot be lowered to
// pipelines fails here, not when it runs.
func (db *DB) Prepare(query string) (*Query, error) {
	node, err := sql.Compile(query, db.cat)
	if err != nil {
		return nil, err
	}
	return db.newQuery("sql", node)
}

// newQuery lowers node into the plan every run of the query executes.
func (db *DB) newQuery(name string, node plan.Node) (*Query, error) {
	pp, err := engine.CompileWith(node, db.cat, db.compile)
	if err != nil {
		return nil, err
	}
	return &Query{db: db, name: name, pp: pp}, nil
}

// PrepareTPCH compiles TPC-H query 1..22 against the generated dataset.
// Works after GenerateTPCH or after LoadDir of a tpchgen-produced snapshot
// (the scale factor is then derived from the orders row count).
func (db *DB) PrepareTPCH(id int) (*Query, error) {
	sf := db.tpchSF
	if sf == 0 {
		// Data may have been loaded from disk; derive the scale factor.
		orders, err := db.cat.Table("orders")
		if err != nil {
			return nil, fmt.Errorf("riveter: no TPC-H data loaded (GenerateTPCH or LoadDir first)")
		}
		sf = float64(orders.NumRows()) / 1500000.0
	}
	q, err := tpch.Get(id)
	if err != nil {
		return nil, err
	}
	return db.newQuery(q.Name, q.Build(plan.NewBuilder(db.cat), sf))
}

// Name returns the query's display name.
func (q *Query) Name() string { return q.name }

// Fingerprint returns the plan fingerprint: a hash of the canonicalized
// plan tree (tables, projections, predicates, literals). Equal
// fingerprints mean identical plans — the server's whole-plan fold groups
// key on it.
func (q *Query) Fingerprint() uint64 { return q.pp.Fingerprint }

// Plan renders the logical plan tree.
func (q *Query) Plan() string { return plan.Tree(q.pp.Root) }

// Estimate is the cost model's pre-execution view of a query: the inputs an
// admission controller reasons about before any morsel has run. State
// sizes come from the deliberately naive optimizer model (see
// internal/plan and DESIGN.md §5) — they are ranking signals, not
// measurements.
type Estimate struct {
	// InputBytes totals the scanned base tables.
	InputBytes int64
	// StateBytes prices the peak intermediate state via the optimizer-based
	// process-image estimator at full progress (an upper-bound flavour:
	// join-heavy plans overestimate, by design).
	StateBytes int64
}

// Estimate derives the query's pre-execution cost estimate.
func (q *Query) Estimate() Estimate {
	info := costmodel.BuildQueryInfo(q.name, q.pp.Root, q.db.cat)
	return Estimate{
		InputBytes: info.InputBytes,
		StateBytes: costmodel.OptimizerEstimator{}.EstimateProcessImage(info, 1.0),
	}
}

// Query parses and runs a SQL statement to completion.
func (db *DB) Query(ctx context.Context, query string) (*Result, error) {
	q, err := db.Prepare(query)
	if err != nil {
		return nil, err
	}
	return q.Run(ctx)
}

// Run executes the query to completion on the calling goroutine. It runs
// the plan Start runs — with folding on, its scans ride the shared hubs —
// but cannot be suspended.
func (q *Query) Run(ctx context.Context) (*Result, error) {
	return engine.NewExecutor(q.pp, q.db.execOpts(q.db.obsFor(nil))).Run(ctx)
}

// Execution is an in-flight query that can be suspended.
type Execution struct {
	q  *Query
	ex *engine.Executor

	// lin is the execution's write-ahead lineage log (nil unless started
	// via Query.StartWithLineage or resumed from a lineage ResumePoint).
	lin *strategy.LineageLog

	done chan struct{}
	res  *Result
	err  error
}

// execOpts assembles the executor options every start and resume path of
// this DB shares.
func (db *DB) execOpts(o obs.Context) engine.Options {
	return engine.Options{Workers: db.workers, Live: &db.live, Obs: o}
}

// launch runs e's executor (with its lineage log, if any) asynchronously.
func (e *Execution) launch(ctx context.Context) *Execution {
	e.done = make(chan struct{})
	go func() {
		defer close(e.done)
		e.res, e.err = e.ex.Run(ctx)
		if e.lin != nil && !errors.Is(e.err, ErrSuspended) {
			// Finished, failed or cancelled: the log is history, not
			// recovery state. Close it without a seal; the caller discards
			// it when done inspecting. A suspended run keeps it open for
			// the seal or an in-place resume.
			e.lin.Close()
		}
	}()
	return e
}

// Start launches the query asynchronously. With folding enabled every
// base-table scan of the plan rides its shared hub (scan sharing is
// shape-neutral, so the execution stays fully checkpointable).
func (q *Query) Start(ctx context.Context) (*Execution, error) {
	e, err := q.start(nil)
	if err != nil {
		return nil, err
	}
	return e.launch(ctx), nil
}

// start builds an execution of the query for launch to run; the caller
// may arm it first. A non-nil lineage attaches a write-ahead lineage log
// configured by it.
func (q *Query) start(lineage *LineageConfig) (*Execution, error) {
	o := q.db.obsFor(q.db.newTrace(q.name))
	if q.db.foldM != nil && o.Trace != nil {
		o.Trace.Event(obs.EvFoldAttach, obs.A("fingerprint", q.pp.Fingerprint))
	}
	opts := q.db.execOpts(o)
	e := &Execution{q: q}
	if lineage != nil {
		var err error
		if e.lin, err = q.db.seam.OpenLineage(q.pp, q.name, *lineage, &opts); err != nil {
			return nil, err
		}
	}
	e.ex = engine.NewExecutor(q.pp, opts)
	return e, nil
}

// Suspend requests a suspension: PipelineLevel takes effect at the next
// pipeline breaker, ProcessLevel at the next morsel boundary. Redo is not a
// suspension — cancel the Start context instead.
func (e *Execution) Suspend(k Strategy) error {
	kind, err := e.kind(k)
	if err != nil {
		return err
	}
	e.ex.RequestSuspend(kind)
	if e.q.db.foldM != nil {
		if tr := e.ex.Obs().Trace; tr != nil {
			tr.Event(obs.EvFoldDetach, obs.A("kind", k.String()))
		}
	}
	return nil
}

// SuspendWhen requests a k suspension, as Suspend does and with its
// errors, at the first morsel boundary where ProcessedBytes has reached
// processedBytes. Safe during the run: a mark already passed fires at the
// next boundary, and a new mark replaces one not yet fired.
func (e *Execution) SuspendWhen(k Strategy, processedBytes int64) error {
	kind, err := e.kind(k)
	if err != nil {
		return err
	}
	e.ex.SuspendWhen(kind, processedBytes)
	return nil
}

// ProcessedBytes returns the bytes the whole query has processed so far,
// every pipeline's input across resumes: the unit SuspendWhen's mark takes.
func (e *Execution) ProcessedBytes() int64 { return e.ex.Accountant().ProcessedBytes() }

// kind maps a suspension strategy to the engine's suspension kind.
func (e *Execution) kind(k Strategy) (engine.SuspendKind, error) {
	switch k {
	case PipelineLevel:
		return engine.KindPipeline, nil
	case ProcessLevel:
		return engine.KindProcess, nil
	case LineageLevel:
		// A lineage suspension quiesces at the next morsel boundary (the
		// log already holds the state); the caller then seals the log by
		// persisting to its lineage ResumePoint instead of writing a
		// checkpoint.
		if e.lin == nil {
			return engine.KindNone, fmt.Errorf("riveter: execution has no lineage log (use Query.StartWithLineage)")
		}
		return engine.KindProcess, nil
	}
	return engine.KindNone, fmt.Errorf("riveter: a suspension is PipelineLevel, ProcessLevel, or LineageLevel; cancel the context for Redo")
}

// Wait blocks until the query completes, suspends, or is cancelled. It
// returns ErrSuspended when a requested suspension took effect.
func (e *Execution) Wait() error {
	<-e.done
	return e.err
}

// Result returns the completed result (after Wait returned nil).
func (e *Execution) Result() (*Result, error) {
	<-e.done
	return e.res, e.err
}

// Trace returns the execution's event trace (nil unless the DB was opened
// WithTracing). Passing the suspended execution to Query.StartFrom makes
// the resumed execution continue this trace, so it spans the whole
// suspend→persist→resume round trip.
func (e *Execution) Trace() *obs.Trace { return e.ex.Obs().Trace }

// discardLog deletes the execution's lineage log, if it has one.
func (e *Execution) discardLog() {
	if e.lin != nil {
		e.q.db.Discard(ResumePoint{Target: strategy.TargetLineage, Ref: e.lin.Path()})
	}
}

// suspended blocks until the execution stops and returns an error unless
// it stopped by suspending.
func (e *Execution) suspended() error {
	<-e.done
	if !errors.Is(e.err, ErrSuspended) {
		return fmt.Errorf("riveter: execution is not suspended (err=%v)", e.err)
	}
	return nil
}

// ResumeInPlace continues a suspended execution on the executor that
// quiesced, touching no disk and serializing nothing: the suspension is
// cleared and the same executor runs on from its in-memory state — a
// process-level capture's in-flight pipelines from their morsel cursors, a
// pipeline-level one from its first unfinished pipeline. A server
// continues every held session this way — a preempted victim, or an idle
// park that could not be persisted. The returned Execution keeps this
// one's trace and lineage log; this one must not be used again.
func (e *Execution) ResumeInPlace(ctx context.Context) (*Execution, error) {
	if err := e.suspended(); err != nil {
		return nil, err
	}
	kind := "pipeline"
	if e.ex.Suspended().Kind == engine.KindProcess {
		kind = "process"
	}
	e.ex.ClearSuspension()
	if tr := e.ex.Obs().Trace; tr != nil {
		tr.Event(obs.EvResumeInPlace, obs.A("kind", kind))
	}
	return (&Execution{q: e.q, ex: e.ex, lin: e.lin}).launch(ctx), nil
}
