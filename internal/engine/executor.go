package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/vector"
)

// SuspendKind identifies the suspension granularity.
type SuspendKind int32

// Suspension kinds. KindNone means no suspension is pending.
const (
	KindNone SuspendKind = iota
	// KindPipeline suspends at the next pipeline breaker (after the current
	// pipeline finalizes) — the paper's pipeline-level strategy.
	KindPipeline
	// KindProcess suspends at the next morsel boundary of every worker —
	// the paper's process-level (CRIU-style) strategy.
	KindProcess
)

// ErrSuspended is returned by Run when execution stopped due to a suspension
// request; the executor then holds the state to be checkpointed.
var ErrSuspended = errors.New("engine: execution suspended")

// BreakerAction is the decision returned by the breaker callback.
type BreakerAction int

// Breaker decisions.
const (
	ActionContinue BreakerAction = iota
	ActionSuspend
)

// BreakerEvent describes the pipeline breaker the executor just crossed; it
// is handed to the OnBreaker callback, where Riveter's cost model decides
// whether to suspend (paper §III-C: decisions are made when query execution
// reaches a pipeline breaker). Under the DAG scheduler breaker events are
// serialized on the scheduler goroutine, so the callback always observes a
// consistent set of finalized pipelines even while sibling pipelines keep
// claiming morsels.
type BreakerEvent struct {
	ex *Executor

	// PipelineIdx is the pipeline that just finalized.
	PipelineIdx int
	// NumPipelines is the total pipeline count of the plan.
	NumPipelines int
	// Elapsed is total execution time so far (across resumes).
	Elapsed time.Duration
	// PipelineTimes holds the duration of each finalized pipeline.
	PipelineTimes []time.Duration
}

// SavePipelineState serializes a pipeline-level snapshot of the executor
// state as of this breaker. Safe mid-run because breaker events run on the
// scheduler goroutine and a pipeline-kind snapshot carries only the done
// bitmap and finalized sink globals — immutable once their pipeline
// finalized — never in-flight worker locals. The snapshot is loadable by
// LoadState under any worker count; the write-ahead lineage log appends
// one per breaker as its sealed resume points.
func (e *BreakerEvent) SavePipelineState(enc *vector.Encoder) error {
	return e.ex.savePipelineStateAt(enc, e.Elapsed)
}

// suspendMark is a suspension armed at a processed-bytes count.
type suspendMark struct {
	kind SuspendKind
	at   int64
}

// Options configure an Executor.
type Options struct {
	// Workers is the total worker-goroutine budget (>=1). The DAG scheduler
	// partitions it across all concurrently running pipelines.
	Workers int
	// MaxConcurrentPipelines caps how many pipelines may run at once.
	// 0 means no cap (bounded only by Workers and DAG readiness); 1 degrades
	// to the pre-DAG serial schedule: pipelines execute one at a time in
	// compile order, which is what the equivalence property tests pin against.
	MaxConcurrentPipelines int
	// Accountant models process-image growth; nil gets a default.
	Accountant *Accountant
	// OnBreaker, when set, is invoked synchronously after every pipeline
	// finalize. Returning ActionSuspend triggers a pipeline-level
	// suspension at this breaker.
	OnBreaker func(*BreakerEvent) BreakerAction
	// Obs attaches metrics and tracing. The zero value disables both; the
	// hot morsel loop then pays only two thread-local integer adds.
	Obs obs.Context
	// Live, when set, is a shared live-execution gauge: Run increments it
	// on entry and decrements on exit (including suspension). The fold
	// subsystem's scan hubs consult it for the single-rider fast path —
	// while at most one execution is live, shared-window maintenance is
	// pure overhead, so hubs serve private base reads instead.
	Live *atomic.Int64
}

// execMetrics holds the executor's metric handles, resolved once at
// construction so the run loop never touches the registry. All handles are
// nil (and drop recordings) when no registry is attached.
type execMetrics struct {
	morsels      *obs.Counter
	processed    *obs.Counter
	pipesDone    *obs.Counter
	breakers     *obs.Counter
	suspends     [3]*obs.Counter // indexed by SuspendKind
	pipeDur      *obs.Histogram
	liveState    *obs.Gauge
	runningPipes *obs.Gauge
}

func resolveExecMetrics(r *obs.Registry) execMetrics {
	if r == nil {
		return execMetrics{}
	}
	return execMetrics{
		morsels:   r.Counter(obs.MetricMorsels),
		processed: r.Counter(obs.MetricProcessedBytes),
		pipesDone: r.Counter(obs.MetricPipelinesDone),
		breakers:  r.Counter(obs.MetricBreakers),
		suspends: [3]*obs.Counter{
			KindPipeline: r.Counter(obs.Kinded(obs.MetricSuspends, "pipeline")),
			KindProcess:  r.Counter(obs.Kinded(obs.MetricSuspends, "process")),
		},
		pipeDur:      r.DurationHistogram(obs.MetricPipelineDuration),
		liveState:    r.Gauge(obs.MetricLiveStateBytes),
		runningPipes: r.Gauge(obs.MetricRunningPipelines),
	}
}

// inflightPipe is the captured mid-flight execution state of one pipeline:
// its morsel cursor, the worker-local sink states accumulated so far, and the
// time already spent inside it. The executor holds a set of these — either
// restored from a checkpoint before Run, or captured by a process-level
// barrier across every pipeline the DAG scheduler had running.
type inflightPipe struct {
	pi      int
	cursor  int64
	locals  []LocalState
	elapsed time.Duration
}

// Executor runs a physical plan with morsel-driven parallelism and supports
// the three suspension paths: context cancellation (redo), pipeline-level
// suspension at breakers, and process-level suspension at morsel boundaries.
// Pipelines whose dependencies have finalized run concurrently, sharing the
// Options.Workers goroutine budget. The run state is the executor's own.
type Executor struct {
	pp   *PhysicalPlan
	opts Options
	acct *Accountant
	met  execMetrics
	tr   *obs.Trace

	// states holds each pipeline's global sink state, written only by its
	// Combine and Finalize and read by dependents once it finalized.
	states []GlobalState

	suspendReq atomic.Int32
	// mark is the armed one-shot progress trigger, nil once it fired at
	// markFiredAt (UnixNano).
	mark        atomic.Pointer[suspendMark]
	markFiredAt atomic.Int64
	// stopAll barriers every worker at its next morsel boundary regardless of
	// pipeline: set on worker error (abort) and when a breaker commits a
	// pipeline-level suspension (sibling progress is discarded, see schedule).
	stopAll atomic.Bool

	mu         sync.Mutex
	done       []bool
	pipeTimes  []time.Duration
	inflight   []*inflightPipe // captured or restored mid-flight pipelines
	elapsed    time.Duration   // accumulated across resumes
	suspended  *SuspendInfo
	ranAlready bool
}

// InFlightPipeline summarizes one pipeline interrupted mid-flight by a
// process-level suspension.
type InFlightPipeline struct {
	// Pipeline is the interrupted pipeline's index.
	Pipeline int
	// Cursor is its morsel cursor (morsels claimed so far).
	Cursor int64
	// Workers is how many worker-local states were captured.
	Workers int
	// Elapsed is the time spent inside this pipeline so far.
	Elapsed time.Duration
}

// SuspendInfo describes the captured suspension.
type SuspendInfo struct {
	Kind SuspendKind
	// Pipeline is the lowest-index pending pipeline: the first in-flight one
	// (process-level) or the next to run (pipeline-level).
	Pipeline int
	// Cursor is the morsel cursor of that pipeline (process-level).
	Cursor int64
	// Elapsed is the total execution time consumed so far.
	Elapsed time.Duration
	// InFlight lists every pipeline interrupted mid-flight, ascending by
	// index. Empty for pipeline-level suspensions and for process-level
	// barriers that landed between pipelines.
	InFlight []InFlightPipeline
}

// NewExecutor builds an executor for a compiled plan.
func NewExecutor(pp *PhysicalPlan, opts Options) *Executor {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.MaxConcurrentPipelines < 0 {
		opts.MaxConcurrentPipelines = 0
	}
	acct := opts.Accountant
	if acct == nil {
		acct = NewAccountant()
	}
	states := make([]GlobalState, len(pp.Pipelines))
	for i, p := range pp.Pipelines {
		states[i] = p.Sink.MakeGlobal(states[:i])
	}
	return &Executor{
		pp:        pp,
		opts:      opts,
		acct:      acct,
		met:       resolveExecMetrics(opts.Obs.Metrics),
		tr:        opts.Obs.Trace,
		states:    states,
		done:      make([]bool, len(pp.Pipelines)),
		pipeTimes: make([]time.Duration, len(pp.Pipelines)),
	}
}

// source returns the source p reads in this execution, a SinkSource bound
// to its breaker's rows. Call it only once p's dependencies finalized.
func (ex *Executor) source(p *Pipeline) Source {
	if s, ok := p.Source.(*SinkSource); ok {
		return s.bind(ex.states)
	}
	return p.Source
}

// Plan returns the physical plan.
func (ex *Executor) Plan() *PhysicalPlan { return ex.pp }

// Workers returns the configured worker count.
func (ex *Executor) Workers() int { return ex.opts.Workers }

// Accountant returns the memory accountant.
func (ex *Executor) Accountant() *Accountant { return ex.acct }

// Obs returns the executor's observability context (zero when disabled).
func (ex *Executor) Obs() obs.Context { return obs.Context{Metrics: ex.opts.Obs.Metrics, Trace: ex.tr} }

// RequestSuspend asks the executor to suspend at the next opportunity of the
// given kind. Safe to call from any goroutine. A later request overrides an
// earlier one only if none has been consumed yet.
func (ex *Executor) RequestSuspend(kind SuspendKind) {
	ex.suspendReq.Store(int32(kind))
	ex.tr.Event(obs.EvSuspendRequested, obs.A("kind", kindName(kind)))
}

// kindName renders a SuspendKind for trace attributes.
func kindName(k SuspendKind) string {
	switch k {
	case KindPipeline:
		return "pipeline"
	case KindProcess:
		return "process"
	default:
		return "none"
	}
}

// Suspended returns the suspension capture after Run returned ErrSuspended.
func (ex *Executor) Suspended() *SuspendInfo {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.suspended
}

// SuspendWhen arms a one-shot kind suspension for when the processed bytes
// reach at: the first worker at a morsel boundary at or past the mark
// requests it, independent of timer granularity. Safe from any goroutine,
// before or during Run; a mark already passed fires at the next boundary,
// and re-arming replaces the mark or, once it fired, arms it again.
func (ex *Executor) SuspendWhen(kind SuspendKind, at int64) {
	ex.mark.Store(&suspendMark{kind: kind, at: at})
}

// MarkFiredAt returns when a mark last fired, or the zero time if none has.
func (ex *Executor) MarkFiredAt() time.Time {
	n := ex.markFiredAt.Load()
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// ClearSuspension discards a suspension capture and lets Run continue the
// query in place. After a process-level capture the in-flight pipelines'
// locals and morsel cursors are retained and relaunch where they stopped;
// after a pipeline-level one the finalized pipelines stay done and the
// unfinished ones start over (their discarded locals were never combined
// into a sink). It turns a suspension barrier into a quiesce point: Riveter
// uses it to run the cost model against a consistent executor state and
// then keep going, and a server to hold a preempted victim in memory.
func (ex *Executor) ClearSuspension() {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.suspended = nil
	ex.suspendReq.Store(int32(KindNone))
}

// PipelineProgress is the progress of one in-flight pipeline.
type PipelineProgress struct {
	// Pipeline is the pipeline's index.
	Pipeline int
	// DoneMorsels and TotalMorsels cover this pipeline.
	DoneMorsels, TotalMorsels int64
	// Elapsed is the time spent inside this pipeline so far.
	Elapsed time.Duration
}

// eta extrapolates the pipeline's remaining time from its per-morsel rate.
func (p PipelineProgress) eta() time.Duration {
	if p.DoneMorsels <= 0 || p.TotalMorsels <= p.DoneMorsels {
		return 0
	}
	perMorsel := float64(p.Elapsed) / float64(p.DoneMorsels)
	return time.Duration(perMorsel * float64(p.TotalMorsels-p.DoneMorsels))
}

// Progress describes how far execution has advanced; used by the cost model
// to estimate the time to the next pipeline breaker.
type Progress struct {
	// Pipeline is the lowest-index pipeline currently in flight (or next to
	// execute).
	Pipeline int
	// NumPipelines is the plan's pipeline count.
	NumPipelines int
	// DoneMorsels and TotalMorsels cover that pipeline.
	DoneMorsels, TotalMorsels int64
	// PipelineElapsed is the time spent in that pipeline so far.
	PipelineElapsed time.Duration
	// InFlight holds the progress of every in-flight pipeline (ascending by
	// index) when the executor quiesced with several pipelines running.
	InFlight []PipelineProgress
}

// NextBreakerEta estimates the time until the next pipeline breaker fires.
// With several pipelines in flight that is the minimum of their extrapolated
// remaining times — whichever finalizes first reaches its breaker first.
func (p Progress) NextBreakerEta() time.Duration {
	if len(p.InFlight) == 0 {
		return PipelineProgress{
			DoneMorsels: p.DoneMorsels, TotalMorsels: p.TotalMorsels, Elapsed: p.PipelineElapsed,
		}.eta()
	}
	min := time.Duration(-1)
	for _, f := range p.InFlight {
		if e := f.eta(); min < 0 || e < min {
			min = e
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// PipelineSuspendDiscard estimates the in-flight work a pipeline-level
// suspension would throw away: when the first breaker fires, every sibling
// pipeline is quiesced and its partial progress discarded (pipeline-level
// checkpoints carry only finalized state, which is what keeps them resumable
// under a different worker count). The estimate charges the elapsed time of
// every in-flight pipeline except the one expected to reach its breaker
// first.
func (p Progress) PipelineSuspendDiscard() time.Duration {
	if len(p.InFlight) <= 1 {
		return 0
	}
	first, firstEta := 0, time.Duration(-1)
	for i, f := range p.InFlight {
		if e := f.eta(); firstEta < 0 || e < firstEta {
			first, firstEta = i, e
		}
	}
	var lost time.Duration
	for i, f := range p.InFlight {
		if i != first {
			lost += f.Elapsed
		}
	}
	return lost
}

// firstPendingLocked returns the lowest-index pipeline not yet finalized
// (len(Pipelines) when all are done). Callers hold ex.mu.
func (ex *Executor) firstPendingLocked() int {
	for i, d := range ex.done {
		if !d {
			return i
		}
	}
	return len(ex.pp.Pipelines)
}

// allDone reports whether every pipeline has finalized.
func (ex *Executor) allDone() bool {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.firstPendingLocked() == len(ex.pp.Pipelines)
}

// CurrentProgress returns the execution progress snapshot. Meaningful when
// the executor is quiesced (suspended) or between pipelines.
func (ex *Executor) CurrentProgress() Progress {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	p := Progress{Pipeline: ex.firstPendingLocked(), NumPipelines: len(ex.pp.Pipelines)}
	if len(ex.inflight) > 0 {
		for _, c := range ex.inflight {
			pl := ex.pp.Pipelines[c.pi]
			p.InFlight = append(p.InFlight, PipelineProgress{
				Pipeline:    c.pi,
				DoneMorsels: c.cursor,
				// In-flight pipelines had all dependencies finalized, so the
				// source's morsel count is well defined.
				TotalMorsels: ex.source(pl).MorselCount(),
				Elapsed:      c.elapsed,
			})
		}
		first := p.InFlight[0]
		p.Pipeline = first.Pipeline
		p.DoneMorsels = first.DoneMorsels
		p.TotalMorsels = first.TotalMorsels
		p.PipelineElapsed = first.Elapsed
		return p
	}
	if p.Pipeline < len(ex.pp.Pipelines) {
		pl := ex.pp.Pipelines[p.Pipeline]
		ready := true
		for _, d := range pl.Deps {
			if !ex.done[d] {
				ready = false
				break
			}
		}
		if ready {
			p.TotalMorsels = ex.source(pl).MorselCount()
		}
	}
	return p
}

// EstimateNextBreakerCheckpointBytes approximates the pipeline-level
// checkpoint size at the next breaker: the finalized live states pending
// pipelines still need, plus the worker-local state of every in-flight
// pipeline (whose breakers will merge it into the global state). Local
// states are priced by serializing them to a counting writer — the
// checkpoint's L_s depends on serialized bytes, which for hash tables are
// far below their resident size. Call only while the executor is quiesced.
func (ex *Executor) EstimateNextBreakerCheckpointBytes() int64 {
	ex.mu.Lock()
	inflight := ex.inflight
	ex.mu.Unlock()
	n := ex.measureState(KindPipeline)
	var cw countingWriter
	enc := vector.NewEncoder(&cw)
	for _, c := range inflight {
		sink := ex.pp.Pipelines[c.pi].Sink
		for _, ls := range c.locals {
			_ = sink.SaveLocal(ls, enc)
		}
	}
	return n + cw.n
}

// Elapsed returns total execution time accumulated so far (across resumes).
func (ex *Executor) Elapsed() time.Duration {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.elapsed
}

// PipelineTimes returns a copy of the per-pipeline durations recorded so far.
func (ex *Executor) PipelineTimes() []time.Duration {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	out := make([]time.Duration, 0, len(ex.pipeTimes))
	for i, d := range ex.pipeTimes {
		if ex.done[i] {
			out = append(out, d)
		}
	}
	return out
}

// Run executes the plan to completion, a suspension, or cancellation.
// It may be called again to continue a suspended query in place. Other
// executors may run the same plan meanwhile: the run state is this
// executor's own.
//
// Scheduling is DAG-driven: every pipeline whose dependencies have finalized
// is eligible to run, and the Options.Workers goroutine budget is partitioned
// across the running set (see schedule in scheduler.go). Serial per-pipeline
// execution is the MaxConcurrentPipelines==1 special case.
func (ex *Executor) Run(ctx context.Context) (*ResultSet, error) {
	ex.mu.Lock()
	if ex.suspended != nil {
		ex.mu.Unlock()
		return nil, fmt.Errorf("engine: executor already suspended; build a new executor and LoadState to resume")
	}
	start := time.Now()
	restored := ex.inflight
	ex.inflight = nil
	ex.ranAlready = true
	ex.mu.Unlock()
	ex.stopAll.Store(false)
	if ex.opts.Live != nil {
		ex.opts.Live.Add(1)
		defer ex.opts.Live.Add(-1)
	}

	defer func() {
		ex.mu.Lock()
		ex.elapsed += time.Since(start)
		ex.mu.Unlock()
	}()

	if err := newSchedule(ex, ctx, start).run(restored); err != nil {
		return nil, err
	}
	res := &ResultSet{Schema: ex.pp.OutSchema, Buf: ex.states[len(ex.states)-1].(*RowBuffer)}
	return res, nil
}

// breakerSuspend runs the breaker hook after pipeline pi finalized and
// reports whether a pipeline-level suspension should trigger. Called only
// from the scheduler goroutine, so breaker events are totally ordered.
func (ex *Executor) breakerSuspend(pi int, runStart time.Time) bool {
	ex.met.breakers.Inc()
	if ex.tr != nil {
		ex.tr.Event(obs.EvBreaker, obs.A("pipeline", pi))
	}
	// An explicit pipeline-level request wins.
	if SuspendKind(ex.suspendReq.Load()) == KindPipeline {
		ex.suspendReq.Store(int32(KindNone))
		return true
	}
	if ex.opts.OnBreaker == nil {
		return false
	}
	ex.mu.Lock()
	times := make([]time.Duration, 0, pi+1)
	for i := range ex.pp.Pipelines {
		if ex.done[i] {
			times = append(times, ex.pipeTimes[i])
		}
	}
	elapsed := ex.elapsed + time.Since(runStart)
	ex.mu.Unlock()
	ev := &BreakerEvent{
		ex:            ex,
		PipelineIdx:   pi,
		NumPipelines:  len(ex.pp.Pipelines),
		Elapsed:       elapsed,
		PipelineTimes: times,
	}
	return ex.opts.OnBreaker(ev) == ActionSuspend
}

// claimMorsel claims the next unprocessed morsel index with a CAS so the
// cursor never exceeds the morsel count — DoneMorsels and suspend captures
// are exact without downstream clamping.
func claimMorsel(cursor *atomic.Int64, morsels int64) (int64, bool) {
	for {
		cur := cursor.Load()
		if cur >= morsels {
			return 0, false
		}
		if cursor.CompareAndSwap(cur, cur+1) {
			return cur, true
		}
	}
}

// runWorker is one morsel-pulling worker loop of rp. It returns stopped=true
// when it exited at a morsel boundary due to a stop signal (context
// cancellation, a process-level suspension request, or the stop-all
// barrier) rather than because the pipeline's morsels were exhausted.
func (ex *Executor) runWorker(ctx context.Context, rp *runningPipe, local LocalState) (stopped bool, err error) {
	p, src, cursor, morsels := rp.p, rp.src, &rp.cursor, rp.morsels
	chunk := vector.NewViewChunk(src.OutTypes())
	chain := makeChain(p.Ops, ex.states, func(c *vector.Chunk) error {
		return p.Sink.Consume(local, c)
	})
	// Metrics are accumulated worker-locally and flushed once on exit so the
	// morsel loop pays two plain integer adds, not shared atomics.
	var doneMorsels, doneBytes int64
	defer func() {
		ex.met.morsels.Add(doneMorsels)
		ex.met.processed.Add(doneBytes)
	}()
	for {
		if ctx.Err() != nil {
			return true, nil // cancellation surfaces via ctx.Err in Run
		}
		if m := ex.mark.Load(); m != nil && ex.acct.ProcessedBytes() >= m.at {
			// Request first: a worker finding the mark spent finds the request
			// too, so none claims past it while the firing one is descheduled.
			ex.suspendReq.Store(int32(m.kind))
			if ex.mark.CompareAndSwap(m, nil) {
				ex.markFiredAt.Store(time.Now().UnixNano())
				ex.tr.Event(obs.EvSuspendRequested, obs.A("kind", kindName(m.kind)))
			}
		}
		if ex.stopAll.Load() || SuspendKind(ex.suspendReq.Load()) == KindProcess {
			// An exhausted pipeline quiesces as finished, not as stopped: its
			// workers already consumed every morsel, so letting it finalize
			// shrinks the capture and keeps the in-flight worker-local count
			// within the Options.Workers budget (a pipeline that lost a worker
			// to morsel exhaustion would otherwise be captured with more
			// locals than live workers).
			return cursor.Load() < morsels, nil
		}
		idx, ok := claimMorsel(cursor, morsels)
		if !ok {
			return false, nil
		}
		n, err := src.ReadMorsel(idx, chunk)
		if err != nil {
			return false, err
		}
		if n == 0 {
			continue
		}
		mb := src.MorselBytes(idx)
		ex.acct.AddProcessed(mb)
		doneMorsels++
		doneBytes += mb
		if err := chain(chunk); err != nil {
			return false, err
		}
	}
}

// makeChain composes streaming operators, bound to an execution's global
// states, into a single push function.
func makeChain(ops []StreamOp, states []GlobalState, final func(*vector.Chunk) error) func(*vector.Chunk) error {
	h := final
	for i := len(ops) - 1; i >= 0; i-- {
		h = ops[i].Bind(states, h)
	}
	return h
}

// liveStateBytes sums the resident size of all finalized sink global states
// and the captured locals of every in-flight pipeline.
func (ex *Executor) liveStateBytes() int64 {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	var b int64
	for i, p := range ex.pp.Pipelines {
		if ex.done[i] {
			b += p.Sink.MemBytes(ex.states[i])
		}
	}
	for _, c := range ex.inflight {
		p := ex.pp.Pipelines[c.pi]
		for _, ls := range c.locals {
			b += p.Sink.LocalMemBytes(ls)
		}
	}
	return b
}
