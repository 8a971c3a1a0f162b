// Package riveter is the paper's core contribution glued together: the
// adaptive query suspension and resumption controller. It executes queries
// on the pipeline engine, consults the cost model (Algorithm 1) at every
// pipeline breaker, triggers the chosen strategy (redo / pipeline-level /
// process-level), persists and restores checkpoints, and simulates the
// termination events of the evaluation scenarios (§IV-B).
package riveter

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/cloud"
	"github.com/riveterdb/riveter/internal/costmodel"
	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/strategy"
)

// Controller runs queries under Riveter's adaptive suspension policy.
type Controller struct {
	Cat           *catalog.Catalog
	Workers       int
	IO            costmodel.IOProfile
	CheckpointDir string
	// Estimator predicts process-image sizes for Algorithm 1's probing;
	// typically a trained RegressionEstimator or the OptimizerEstimator.
	Estimator costmodel.SizeEstimator
	// AvailableMemory is M in Algorithm 1 (0 = unlimited).
	AvailableMemory int64
	// UseLineage attaches a write-ahead lineage log to every adaptive run,
	// making the lineage strategy available to Algorithm 1: the suspension
	// then only seals the log's tail, and the resume replays from the last
	// sealed breaker state.
	UseLineage bool
	// Lineage prices the lineage strategy's log-append and replay terms
	// (zero = calibrated defaults).
	Lineage costmodel.LineageProfile
	// Retention overrides the process-image model's resident fraction of
	// processed bytes (0 = engine default). Exposed for ablations of the
	// CRIU-image substitution (see DESIGN.md §8).
	Retention float64
	// Rng drives termination sampling.
	Rng *rand.Rand
	// Metrics, when set, receives suspend/resume/decision metrics from
	// every scenario run.
	Metrics *obs.Registry
	// FS is the filesystem checkpoints and lineage logs go through.
	FS faultfs.FS
	// Tracing, when true, attaches a per-run decision Trace to each Report
	// (strategy decisions with their cost-model inputs, suspension
	// acknowledgements, checkpoint persists, restores, and outcomes).
	Tracing bool

	seq atomic.Int64
}

// NewController builds a controller with sensible defaults.
func NewController(cat *catalog.Catalog, workers int, dir string) *Controller {
	return &Controller{
		Cat:           cat,
		Workers:       workers,
		IO:            costmodel.DefaultIOProfile(),
		CheckpointDir: dir,
		FS:            faultfs.OS,
		Rng:           rand.New(rand.NewSource(1)),
	}
}

// QuerySpec is a calibrated query ready for scenario runs.
type QuerySpec struct {
	Name     string
	Node     plan.Node
	EstTotal time.Duration
	// TotalProcessed is the total bytes flowing through workers in a clean
	// run; progress-triggered suspensions use it as the 100% mark.
	TotalProcessed int64
	Info           costmodel.QueryInfo
}

// Calibrate measures the query's normal execution time (the paper's
// "Execution Time" baseline) and total processed bytes. The first run warms
// allocator and caches and is discarded; the estimate is the fastest of the
// following runs, each started from a collected heap, which keeps GC noise
// out of the baseline the scenario timers are derived from.
func (c *Controller) Calibrate(name string, node plan.Node) (QuerySpec, error) {
	spec := QuerySpec{
		Name: name,
		Node: node,
		Info: costmodel.BuildQueryInfo(name, node, c.Cat),
	}
	if _, _, err := c.runFresh(context.Background(), node, nil); err != nil {
		return QuerySpec{}, err
	}
	for i := 0; i < 2; i++ {
		runtime.GC()
		start := time.Now()
		ex, _, err := c.runFresh(context.Background(), node, nil)
		if err != nil {
			return QuerySpec{}, err
		}
		elapsed := time.Since(start)
		if spec.EstTotal == 0 || elapsed < spec.EstTotal {
			spec.EstTotal = elapsed
			spec.TotalProcessed = ex.Accountant().ProcessedBytes()
		}
	}
	return spec, nil
}

// Scenario is one evaluation configuration: termination probability and the
// window expressed as fractions of the query's normal execution time
// (the paper's X-Y% notation).
type Scenario struct {
	Probability     float64
	WindowStartFrac float64
	WindowEndFrac   float64
}

// Model converts the scenario to an absolute termination model for a query.
func (s Scenario) Model(total time.Duration) cloud.TerminationModel {
	start, end := cloud.WindowFromFractions(total, s.WindowStartFrac, s.WindowEndFrac)
	return cloud.TerminationModel{Probability: s.Probability, Start: start, End: end}
}

// Event is one sampled termination.
type Event struct {
	Terminates bool
	At         time.Duration
}

// Sample draws a termination event for the scenario.
func (c *Controller) Sample(spec QuerySpec, sc Scenario) Event {
	at, ok := sc.Model(spec.EstTotal).Sample(c.Rng)
	return Event{Terminates: ok, At: at}
}

// Report describes one scenario run.
type Report struct {
	Query string
	// Mode is "adaptive" or "forced".
	Mode string
	// Strategy is the strategy used (chosen by the cost model in adaptive
	// mode, predetermined in forced mode).
	Strategy strategy.Kind
	// Suspended reports whether a suspension was executed and persisted.
	Suspended bool
	// Terminated reports whether the termination killed the execution
	// (forcing a redo), and TerminationAt its instant.
	Terminated    bool
	TerminationAt time.Duration
	// TotalTime is the effective execution time including suspension,
	// resumption, and any redo (the paper's "Execution Time with
	// Suspension"); resource-unavailability gaps are excluded.
	TotalTime time.Duration
	// NormalTime is the calibrated baseline.
	NormalTime time.Duration
	// PersistedBytes is the checkpoint payload size (state + image padding).
	PersistedBytes int64
	// SuspendLatency / ResumeLatency are the measured L_s / L_r.
	SuspendLatency time.Duration
	ResumeLatency  time.Duration
	// SuspendLag is request-to-suspension-start (Fig. 9's time lag).
	SuspendLag time.Duration
	// SuspendedPipeline is the pipeline at which the suspension landed and
	// SuspendedProcessed the processed-bytes counter at capture (diagnostics).
	SuspendedPipeline  int
	SuspendedProcessed int64
	// SelectionTime is the cost model's running time (Table V).
	SelectionTime time.Duration
	// Decision is the cost model decision that committed the strategy.
	Decision costmodel.Decision
	// Trace is the run's structured event stream (nil unless the
	// controller's Tracing flag is set).
	Trace *obs.Trace
}

// Overhead is TotalTime - NormalTime, clamped at zero.
func (r *Report) Overhead() time.Duration {
	if r.TotalTime <= r.NormalTime {
		return 0
	}
	return r.TotalTime - r.NormalTime
}

func (c *Controller) ckptPath(name string) string {
	return filepath.Join(c.CheckpointDir, fmt.Sprintf("%s-%d.rvck", name, c.seq.Add(1)))
}

func (c *Controller) lineagePath(name string) string {
	return filepath.Join(c.CheckpointDir, fmt.Sprintf("%s-%d.rvlg", name, c.seq.Add(1)))
}

// obsFor builds the run's observability context: the controller's shared
// registry plus (when Tracing) a fresh per-run trace attached to rep.
func (c *Controller) obsFor(rep *Report, name string) obs.Context {
	o := obs.Context{Metrics: c.Metrics}
	if c.Tracing {
		o.Trace = obs.NewTrace(name)
		rep.Trace = o.Trace
	}
	return o
}

// recordOutcome closes the loop on a run: the measured actuals that the
// cost model's estimates should be audited against.
func recordOutcome(rep *Report) {
	if rep.Trace == nil {
		return
	}
	rep.Trace.Event(obs.EvOutcome,
		obs.A("strategy", rep.Strategy.String()),
		obs.A("suspended", rep.Suspended),
		obs.A("terminated", rep.Terminated),
		obs.A("suspend_latency", rep.SuspendLatency),
		obs.A("resume_latency", rep.ResumeLatency),
		obs.A("persisted_bytes", rep.PersistedBytes),
		obs.A("total_time", rep.TotalTime),
		obs.A("normal_time", rep.NormalTime))
}

// accountant builds the process-image model, honoring Retention overrides.
func (c *Controller) accountant() *engine.Accountant {
	a := engine.NewAccountant()
	if c.Retention > 0 {
		a.Retention = c.Retention
	}
	return a
}

// runFresh compiles and runs a plan to completion (or suspension/cancel).
func (c *Controller) runFresh(ctx context.Context, node plan.Node, onBreaker func(*engine.BreakerEvent) engine.BreakerAction) (*engine.Executor, *engine.ResultSet, error) {
	pp, err := engine.Compile(node, c.Cat)
	if err != nil {
		return nil, nil, err
	}
	ex := engine.NewExecutor(pp, engine.Options{Workers: c.Workers, OnBreaker: onBreaker, Accountant: c.accountant()})
	res, err := ex.Run(ctx)
	return ex, res, err
}

// rerun measures a clean re-execution (the redo path).
func (c *Controller) rerun(spec QuerySpec) (time.Duration, error) {
	start := time.Now()
	if _, _, err := c.runFresh(context.Background(), spec.Node, nil); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// terminationGuard cancels the context at the termination instant unless
// disarmed first (the suspension completed in time).
type terminationGuard struct {
	timer *time.Timer
	mu    sync.Mutex
	fired bool
}

func armTermination(ev Event, start time.Time, cancel context.CancelFunc) *terminationGuard {
	g := &terminationGuard{}
	if !ev.Terminates {
		return g
	}
	delay := time.Until(start.Add(ev.At))
	if delay < 0 {
		delay = 0
	}
	g.timer = time.AfterFunc(delay, func() {
		g.mu.Lock()
		g.fired = true
		g.mu.Unlock()
		cancel()
	})
	return g
}

func (g *terminationGuard) disarm() {
	if g.timer != nil {
		g.timer.Stop()
	}
}

func (g *terminationGuard) hasFired() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.fired
}

// RunForced executes the scenario with a predetermined strategy (the
// paper's Fig. 10 setup: "we deactivate the cost model ... compelling
// Riveter to employ a predetermined strategy"). The suspension is requested
// when execution enters the termination window.
func (c *Controller) RunForced(spec QuerySpec, sc Scenario, ev Event, k strategy.Kind) (*Report, error) {
	return c.runForced(spec, sc, ev, k, -1)
}

// runForced implements RunForced. When progressFrac >= 0 the suspension is
// requested once the executor has processed that fraction of the query's
// calibrated bytes (robust "suspend at ~X% of execution" semantics for the
// size experiments); otherwise it is requested at the window-start instant.
func (c *Controller) runForced(spec QuerySpec, sc Scenario, ev Event, k strategy.Kind, progressFrac float64) (*Report, error) {
	rep := &Report{
		Query:         spec.Name,
		Mode:          "forced",
		Strategy:      k,
		NormalTime:    spec.EstTotal,
		TerminationAt: ev.At,
	}
	model := sc.Model(spec.EstTotal)
	o := c.obsFor(rep, spec.Name)
	start := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	guard := armTermination(ev, start, cancel)
	defer guard.disarm()

	pp, err := engine.Compile(spec.Node, c.Cat)
	if err != nil {
		return nil, err
	}
	opts := engine.Options{Workers: c.Workers, Accountant: c.accountant(), Obs: o}
	var lin *strategy.LineageLog
	if k == strategy.Lineage {
		lin, err = strategy.Seam{FS: c.FS}.OpenLineage(pp, spec.Name, strategy.LineageConfig{Path: c.lineagePath(spec.Name)}, &opts)
		if err != nil {
			return nil, err
		}
		defer func() {
			lin.Close()
			c.FS.Remove(lin.Path())
		}()
	}
	useProgress := k != strategy.Redo && progressFrac >= 0 && spec.TotalProcessed > 0
	if useProgress {
		// Progress-triggered: workers raise the request at the morsel
		// boundary where the processed-bytes fraction crosses the target.
		kind := engine.KindProcess
		if k == strategy.Pipeline {
			kind = engine.KindPipeline
		}
		opts.AutoSuspend = engine.AutoSuspend{
			Kind:             kind,
			AtProcessedBytes: int64(progressFrac * float64(spec.TotalProcessed)),
		}
	}
	ex := engine.NewExecutor(pp, opts)

	var requestedAt atomic.Int64 // UnixNano of the suspension request
	if k != strategy.Redo && !useProgress {
		delay := time.Until(start.Add(model.Start))
		if delay < 0 {
			delay = 0
		}
		suspendTimer := time.AfterFunc(delay, func() {
			requestedAt.Store(time.Now().UnixNano())
			strategy.Request(ex, k, nil)
		})
		defer suspendTimer.Stop()
	}

	res, err := ex.Run(ctx)
	switch {
	case err == nil:
		// Completed before any suspension or termination took effect.
		_ = res
		guard.disarm()
		rep.TotalTime = time.Since(start)
		recordOutcome(rep)
		return rep, nil

	case errors.Is(err, engine.ErrSuspended):
		reqAt := time.Unix(0, requestedAt.Load())
		if useProgress {
			reqAt = ex.AutoSuspendFiredAt()
		}
		rep.SuspendLag = time.Since(reqAt)
		return c.finishSuspended(rep, spec, ev, start, strategy.Run{Ex: ex, Log: lin}, guard)

	case ctx.Err() != nil && guard.hasFired():
		// Terminated before suspension: redo from scratch.
		return c.finishTerminated(rep, spec, ev)

	default:
		return nil, err
	}
}

// finishSuspended persists the suspended run through the seam, checks the
// termination race, and resumes to completion. A lineage suspension seals
// the log's tail (the whole suspension I/O) and replays from the last sealed
// breaker state; every other strategy writes a checkpoint file. A seal
// failure — the log's filesystem died — degrades to the process image: the
// executor is still quiesced with its full state in memory.
func (c *Controller) finishSuspended(rep *Report, spec QuerySpec, ev Event, start time.Time, run strategy.Run, guard *terminationGuard) (*Report, error) {
	ex := run.Ex
	suspendOffset := time.Since(start)
	if info := ex.Suspended(); info != nil {
		rep.SuspendedPipeline = info.Pipeline
	}
	rep.SuspendedProcessed = ex.Accountant().ProcessedBytes()
	seam := strategy.Seam{FS: c.FS, LineagePath: c.lineagePath}
	file := strategy.ResumePoint{Target: strategy.TargetFile, Ref: c.ckptPath(spec.Name)}
	at := file
	if rep.Strategy == strategy.Lineage {
		at = strategy.ResumePoint{Target: strategy.TargetLineage, Ref: run.Log.Path()}
	}
	wres, err := seam.Persist(context.Background(), run, spec.Name, at, strategy.PersistOptions{})
	if err != nil && at != file {
		if c.Metrics != nil {
			c.Metrics.Counter(obs.MetricCheckpointFallback).Inc()
		}
		if rep.Trace != nil {
			rep.Trace.Event(obs.EvCheckpointFallback,
				obs.A("from", "lineage"),
				obs.A("error", err.Error()))
		}
		rep.Strategy, at = strategy.Process, file
		wres, err = seam.Persist(context.Background(), run, spec.Name, at, strategy.PersistOptions{})
	}
	defer seam.Discard(at)
	if err != nil {
		return nil, err
	}
	persistDone := time.Since(start)
	if ev.Terminates && persistDone > ev.At {
		// "Suspension fails to complete before reaching the termination
		// point": all progress and the partial checkpoint are lost.
		rep.SuspendLatency = wres.Duration
		return c.finishTerminated(rep, spec, ev)
	}
	guard.disarm()
	rep.Suspended = true
	rep.PersistedBytes = wres.TotalBytes
	if at.Target == strategy.TargetLineage {
		rep.PersistedBytes = wres.LogBytes
	}
	rep.SuspendLatency = wres.Duration

	// Resource gap passes (not counted), then resume. The run's trace
	// continues into the restored executor so suspend→checkpoint→resume
	// forms one event stream.
	pp2, err := engine.Compile(spec.Node, c.Cat)
	if err != nil {
		return nil, err
	}
	resumed, rres, err := seam.Restore(pp2, spec.Name, at, strategy.LineageConfig{},
		engine.Options{Workers: c.Workers, Accountant: c.accountant(), Obs: ex.Obs()})
	if err != nil {
		return nil, err
	}
	if resumed.Log != nil {
		// A lineage replay carries a fresh log, as a deployed resume does.
		defer func() {
			resumed.Log.Close()
			c.FS.Remove(resumed.Log.Path())
		}()
	}
	rep.ResumeLatency = rres.Duration
	resumeStart := time.Now()
	if _, err := resumed.Ex.Run(context.Background()); err != nil {
		return nil, fmt.Errorf("riveter: resumed run: %w", err)
	}
	rep.TotalTime = suspendOffset + wres.Duration + rres.Duration + time.Since(resumeStart)
	recordOutcome(rep)
	return rep, nil
}

// finishTerminated accounts the wasted time and re-executes from scratch.
func (c *Controller) finishTerminated(rep *Report, spec QuerySpec, ev Event) (*Report, error) {
	rep.Terminated = true
	rerunTime, err := c.rerun(spec)
	if err != nil {
		return nil, err
	}
	rep.TotalTime = ev.At + rerunTime
	recordOutcome(rep)
	return rep, nil
}

// RunAdaptive executes the scenario with Riveter's adaptive selection. The
// resource alert fires when execution enters the termination window (spot
// providers alert "when instances are at risk of imminent termination");
// the executor quiesces at the next morsel boundary, Algorithm 1 selects
// the minimum-cost strategy against the quiesced state, and the strategy
// executes: process-level persists immediately, pipeline-level resumes and
// suspends at the next breaker (incurring the Fig. 9 lag), redo keeps
// running and re-executes if the termination lands.
func (c *Controller) RunAdaptive(spec QuerySpec, sc Scenario, ev Event) (*Report, error) {
	rep := &Report{
		Query:         spec.Name,
		Mode:          "adaptive",
		Strategy:      strategy.Redo,
		NormalTime:    spec.EstTotal,
		TerminationAt: ev.At,
	}
	model := sc.Model(spec.EstTotal)
	params := costmodel.Params{
		IO:          c.IO,
		Probability: sc.Probability,
		WindowStart: model.Start,
		WindowEnd:   model.End,
		Lineage:     c.Lineage,
	}

	o := c.obsFor(rep, spec.Name)
	start := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	guard := armTermination(ev, start, cancel)
	defer guard.disarm()

	pp, err := engine.Compile(spec.Node, c.Cat)
	if err != nil {
		return nil, err
	}
	opts := engine.Options{Workers: c.Workers, Accountant: c.accountant(), Obs: o}
	var lin *strategy.LineageLog
	if c.UseLineage {
		lin, err = strategy.Seam{FS: c.FS}.OpenLineage(pp, spec.Name, strategy.LineageConfig{Path: c.lineagePath(spec.Name)}, &opts)
		if err != nil {
			return nil, err
		}
		defer func() {
			lin.Close()
			c.FS.Remove(lin.Path())
		}()
	}
	ex := engine.NewExecutor(pp, opts)
	run := strategy.Run{Ex: ex, Log: lin}

	// The alert quiesces the executor at a morsel boundary.
	alertDelay := time.Until(start.Add(model.Start))
	if alertDelay < 0 {
		alertDelay = 0
	}
	alert := time.AfterFunc(alertDelay, func() { ex.RequestSuspend(engine.KindProcess) })
	defer alert.Stop()

	res, err := ex.Run(ctx)
	switch {
	case err == nil:
		// Completed before the alert (or before the quiesce landed).
		_ = res
		guard.disarm()
		rep.TotalTime = time.Since(start)
		recordOutcome(rep)
		return rep, nil
	case errors.Is(err, engine.ErrSuspended):
		// Quiesced: run the cost model on consistent state.
	case ctx.Err() != nil && guard.hasFired():
		return c.finishTerminated(rep, spec, ev)
	default:
		return nil, err
	}

	selStart := time.Now()
	prog := ex.CurrentProgress()
	var avg time.Duration
	if times := ex.PipelineTimes(); len(times) > 0 {
		var sum time.Duration
		for _, d := range times {
			sum += d
		}
		avg = sum / time.Duration(len(times))
	}
	in := costmodel.Input{
		Ct:                 ex.Elapsed(),
		AvgPipelineTime:    avg,
		PipelineStateBytes: ex.EstimateNextBreakerCheckpointBytes(),
		AvailableMemory:    c.AvailableMemory,
		EstTotal:           spec.EstTotal,
		NextBreakerEta:     prog.NextBreakerEta(),
		PipelineDiscard:    prog.PipelineSuspendDiscard(),
		Query:              spec.Info,
	}
	if lin != nil && lin.Err() == nil {
		// The write-ahead log makes lineage feasible: suspending costs only
		// the unsealed tail, resuming costs reading the last logged state
		// plus replaying the work done since the last seal.
		in.LineageEnabled = true
		in.LineageTailBytes = lin.TailBytes()
		in.LineageStateBytes = lin.LastStateBytes()
		in.LineageReplay = lin.UnsealedFor()
	}
	d := costmodel.Select(in, params, c.Estimator)
	d.ModelTime = time.Since(selStart) // includes the state measurement, as deployed
	rep.Decision, rep.Strategy, rep.SelectionTime = d, d.Strategy, d.ModelTime
	if c.Metrics != nil {
		c.Metrics.Counter(obs.Kinded(obs.MetricDecisions, d.Strategy.String())).Inc()
		c.Metrics.DurationHistogram(obs.MetricDecisionTime).ObserveDuration(d.ModelTime)
	}
	if rep.Trace != nil {
		rep.Trace.Event(obs.EvDecision,
			obs.A("strategy", d.Strategy.String()),
			obs.A("cost_redo", d.CostRedo),
			obs.A("cost_pipeline", d.CostPipeline),
			obs.A("cost_process", d.CostProcess),
			obs.A("cost_lineage", d.CostLineage),
			obs.A("lineage_enabled", in.LineageEnabled),
			obs.A("lineage_tail_bytes", in.LineageTailBytes),
			obs.A("lineage_replay", in.LineageReplay),
			obs.A("process_suspend_at", d.ProcessSuspendAt),
			obs.A("ct", in.Ct),
			obs.A("avg_pipeline_time", in.AvgPipelineTime),
			obs.A("next_breaker_eta", in.NextBreakerEta),
			obs.A("pipeline_discard", in.PipelineDiscard),
			obs.A("pipeline_state_bytes", in.PipelineStateBytes),
			obs.A("available_memory", in.AvailableMemory),
			obs.A("est_total", in.EstTotal),
			obs.A("probability", params.Probability),
			obs.A("window_start", params.WindowStart),
			obs.A("window_end", params.WindowEnd),
			obs.A("model_time", d.ModelTime))
	}

	switch d.Strategy {
	case strategy.Process, strategy.Lineage:
		// Already suspended at a morsel boundary: persist right here — a
		// process image, or for lineage just the log's tail flush.
		rep.SuspendLag = time.Since(start.Add(model.Start))
		if rep.SuspendLag < 0 {
			rep.SuspendLag = 0
		}
		return c.finishSuspended(rep, spec, ev, start, run, guard)

	case strategy.Pipeline:
		// Resume in place; the suspension lands at the next breaker.
		requestedAt := time.Now()
		ex.ClearSuspension()
		ex.RequestSuspend(engine.KindPipeline)
		_, err := ex.Run(ctx)
		switch {
		case errors.Is(err, engine.ErrSuspended):
			rep.SuspendLag = time.Since(requestedAt)
			return c.finishSuspended(rep, spec, ev, start, run, guard)
		case err == nil:
			// Reached completion before another breaker existed.
			guard.disarm()
			rep.TotalTime = time.Since(start)
			recordOutcome(rep)
			return rep, nil
		case ctx.Err() != nil && guard.hasFired():
			// Terminated while waiting for the breaker: the Fig. 12 failure.
			return c.finishTerminated(rep, spec, ev)
		default:
			return nil, err
		}

	default: // redo: keep running; a termination forces re-execution
		ex.ClearSuspension()
		_, err := ex.Run(ctx)
		switch {
		case err == nil:
			guard.disarm()
			rep.TotalTime = time.Since(start)
			recordOutcome(rep)
			return rep, nil
		case ctx.Err() != nil && guard.hasFired():
			return c.finishTerminated(rep, spec, ev)
		default:
			return nil, err
		}
	}
}

// SuspendAtFraction runs the query and forces a suspension of the given
// kind at approximately the given fraction of its execution (measured as
// processed-bytes progress), returning the persisted checkpoint report.
// Used by the intermediate-data experiments (Figs. 6-9) and for
// regression-estimator training.
func (c *Controller) SuspendAtFraction(spec QuerySpec, k strategy.Kind, frac float64) (*Report, error) {
	sc := Scenario{Probability: 0, WindowStartFrac: frac, WindowEndFrac: frac}
	return c.runForced(spec, sc, Event{}, k, frac)
}
