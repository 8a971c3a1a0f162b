package riveter

// The paper's controller (Algorithm 1, §III) and the termination scenarios
// of its evaluation (§IV-B). Every run drives the query through the same
// lifecycle an application or the server uses: Start, Suspend, Persist,
// StartFrom (or ResumeInPlace) and Discard.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/riveterdb/riveter/internal/cloud"
	"github.com/riveterdb/riveter/internal/costmodel"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/strategy"
)

// Scenario describes an ephemeral-resource situation: a termination that
// occurs with Probability somewhere inside the window
// [WindowStartFrac, WindowEndFrac] of the query's normal execution time
// (the paper's X-Y% notation).
type Scenario struct {
	Probability     float64
	WindowStartFrac float64
	WindowEndFrac   float64
}

// model converts the scenario to an absolute termination model for a query
// whose normal execution time is total.
func (s Scenario) model(total time.Duration) cloud.TerminationModel {
	start, end := cloud.WindowFromFractions(total, s.WindowStartFrac, s.WindowEndFrac)
	return cloud.TerminationModel{Probability: s.Probability, Start: start, End: end}
}

// Event is one sampled termination: whether it happens, and its instant
// from query start.
type Event struct {
	Terminates bool
	At         time.Duration
}

// Sample draws the scenario's termination for a query whose normal
// execution time is total.
func (s Scenario) Sample(total time.Duration, rng *rand.Rand) Event {
	at, ok := s.model(total).Sample(rng)
	return Event{Terminates: ok, At: at}
}

// AdaptiveReport describes one scenario run.
type AdaptiveReport struct {
	// Strategy is what the cost model selected (adaptive runs) or what the
	// run was forced to use.
	Strategy Strategy
	// Suspended reports whether a checkpoint was persisted and resumed;
	// Terminated whether the termination killed the run (forcing a redo).
	Suspended  bool
	Terminated bool
	// NormalTime is the calibrated baseline; TotalTime the effective
	// execution time including suspension, resumption and any redo (the
	// paper's "Execution Time with Suspension"), with the gap while the
	// resource is unavailable excluded.
	NormalTime, TotalTime time.Duration
	// PersistedBytes is the checkpoint size (state plus any image padding;
	// the log size for a lineage suspension).
	PersistedBytes int64
	// SuspendLatency and ResumeLatency are the measured L_s and L_r.
	SuspendLatency, ResumeLatency time.Duration
	// SuspendLag is request-to-suspension (Fig. 9's time lag).
	SuspendLag time.Duration
	// SelectionTime is the cost model's running time (Table V).
	SelectionTime time.Duration
	// Trace is the run's structured event stream — strategy decision with
	// cost-model inputs, suspension, checkpoint, restore, and outcome
	// events (nil unless the DB was opened WithTracing).
	Trace *obs.Trace
}

// Overhead is TotalTime - NormalTime, clamped at zero.
func (r *AdaptiveReport) Overhead() time.Duration {
	return max(r.TotalTime-r.NormalTime, 0)
}

// Adaptive runs a calibrated query under Riveter's suspension controller.
type Adaptive struct {
	// Estimator predicts process-image sizes for Algorithm 1's probing: a
	// trained costmodel.RegressionEstimator or the OptimizerEstimator.
	Estimator costmodel.SizeEstimator

	q         *Query
	normal    time.Duration // calibrated execution time
	processed int64         // bytes a clean run processes: SuspendAt's 100% mark
	info      costmodel.QueryInfo
	rng       *rand.Rand // Run's termination sampler
}

// Calibrate measures the query's normal execution time (the paper's
// "Execution Time" baseline) and total processed bytes, and returns a
// controller using the optimizer-based size estimator. The first run warms
// allocator and caches and is discarded; the estimate is the fastest of the
// following runs, each started from a collected heap, which keeps GC noise
// out of the baseline the scenario timers are derived from.
func (q *Query) Calibrate() (*Adaptive, error) {
	a := &Adaptive{
		Estimator: costmodel.OptimizerEstimator{},
		q:         q,
		info:      costmodel.BuildQueryInfo(q.name, q.pp.Root, q.db.cat),
		rng:       rand.New(rand.NewSource(1)),
	}
	for i := 0; i < 3; i++ {
		if i > 0 {
			runtime.GC()
		}
		start := time.Now()
		e, err := q.Start(context.Background())
		if err != nil {
			return nil, err
		}
		if err := e.Wait(); err != nil {
			return nil, err
		}
		if elapsed := time.Since(start); i > 0 && (a.normal == 0 || elapsed < a.normal) {
			a.normal, a.processed = elapsed, e.ProcessedBytes()
		}
	}
	return a, nil
}

// NewAdaptive calibrates the query and trains the regression-based
// process-image estimator from a few observed suspensions.
func (q *Query) NewAdaptive() (*Adaptive, error) {
	a, err := q.Calibrate()
	if err != nil {
		return nil, err
	}
	reg := costmodel.NewRegressionEstimator()
	for _, frac := range []float64{0.3, 0.6, 0.9} {
		rep, err := a.SuspendAt(ProcessLevel, frac)
		if err != nil {
			return nil, err
		}
		if rep.Suspended {
			reg.Observe(costmodel.Sample{Query: a.info, Fraction: frac, Bytes: rep.PersistedBytes})
		}
	}
	if reg.NumSamples() > 0 {
		a.Estimator = reg
	}
	return a, nil
}

// NormalTime returns the calibrated baseline execution time.
func (a *Adaptive) NormalTime() time.Duration { return a.normal }

// QueryInfo returns the plan characteristics the size estimators read.
func (a *Adaptive) QueryInfo() costmodel.QueryInfo { return a.info }

// Run samples a termination for the scenario and runs the query under
// RunAdaptive.
func (a *Adaptive) Run(sc Scenario) (*AdaptiveReport, error) {
	return a.RunAdaptive(sc, sc.Sample(a.normal, a.rng))
}

// SuspendAt forces a suspension of the given kind once the query has
// processed the given fraction of its calibrated bytes, then persists,
// resumes and finishes it — the measurement behind the paper's Figs. 6-9.
// A lineage suspension runs the query with a write-ahead log attached.
func (a *Adaptive) SuspendAt(k Strategy, frac float64) (*AdaptiveReport, error) {
	r, cancel := a.begin(Event{}, k)
	defer cancel()
	e, err := r.execution(k)
	if err != nil {
		return nil, err
	}
	_ = e.SuspendWhen(k, int64(frac*float64(a.processed))) // refuses Redo, which runs on
	return r.await(e.launch(r.ctx), e.ex.MarkFiredAt)
}

// RunForced runs the scenario with a predetermined strategy (Fig. 10: "we
// deactivate the cost model ... compelling Riveter to employ a
// predetermined strategy"): the suspension is requested when execution
// enters the termination window, and ev terminates the run.
func (a *Adaptive) RunForced(sc Scenario, ev Event, k Strategy) (*AdaptiveReport, error) {
	r, cancel := a.begin(ev, k)
	defer cancel()
	e, err := r.execution(k)
	if err != nil {
		return nil, err
	}
	e.launch(r.ctx)
	alerted := r.start.Add(sc.model(a.normal).Start)
	alert := time.AfterFunc(time.Until(alerted), func() { _ = e.Suspend(k) }) // refuses Redo
	defer alert.Stop()
	return r.await(e, func() time.Time { return alerted })
}

// RunAdaptive runs the scenario with Riveter's adaptive selection; ev is
// the termination. The resource alert fires when execution enters the
// window (spot providers alert "when instances are at risk of imminent
// termination"); the execution quiesces at the next morsel boundary, and
// act decides and executes the decision.
func (a *Adaptive) RunAdaptive(sc Scenario, ev Event) (*AdaptiveReport, error) {
	model := sc.model(a.normal)
	r, cancel := a.begin(ev, Redo)
	defer cancel()
	e, err := r.execution(Redo)
	if err != nil {
		return nil, err
	}
	e.launch(r.ctx)
	alert := time.AfterFunc(time.Until(r.start.Add(model.Start)), func() { e.Suspend(ProcessLevel) })
	defer alert.Stop()
	if err := e.Wait(); !errors.Is(err, ErrSuspended) {
		// Completed before the alert landed, terminated, or failed.
		return r.settle(e, err)
	}
	return r.act(e, model)
}

// act runs Algorithm 1 against the quiesced execution e and executes the
// decision. A process-level suspension priced at the decision instant
// persists right here: e is already at a morsel boundary. Every other
// decision continues e in place; redo then just runs on (a termination
// forces re-execution), and the other strategies arm their suspension at a
// processed-bytes mark: pipeline-level at the bytes already processed, so
// it lands at the next breaker (a termination before it is the Fig. 12
// failure), process-level at the mark the probed instant converts to.
func (r *scenarioRun) act(e *Execution, model cloud.TerminationModel) (*AdaptiveReport, error) {
	d, mark := r.a.decide(e, model)
	r.rep.Strategy, r.rep.SelectionTime = d.Strategy, d.ModelTime
	switch {
	case d.Strategy == ProcessLevel && d.ProcessSuspendAt <= e.ex.Elapsed():
		r.rep.SuspendLag = max(time.Since(r.start.Add(model.Start)), 0)
		return r.settle(e, ErrSuspended)
	case d.Strategy == ProcessLevel:
		_ = e.SuspendWhen(ProcessLevel, mark) // never refused
	case d.Strategy != Redo:
		// The model prices lineage only on e's healthy log.
		_ = e.SuspendWhen(d.Strategy, e.ProcessedBytes())
	}
	cont, err := e.ResumeInPlace(r.ctx)
	if err != nil {
		return nil, err
	}
	return r.await(cont, cont.ex.MarkFiredAt)
}

// decide runs Algorithm 1 on the quiesced execution e. It is the one place
// that writes the model's inputs, and it reads them from e and its DB: the
// lineage terms come from e's log when a healthy one is attached. EstTotal
// and the query's plan characteristics are the calibrated ones. Its
// running time includes measuring the state, as deployed. It also returns
// ProcessSuspendAt as a processed-bytes mark, at the run's observed rate.
func (a *Adaptive) decide(e *Execution, model cloud.TerminationModel) (costmodel.Decision, int64) {
	start := time.Now()
	ex, db := e.ex, a.q.db
	prog := ex.CurrentProgress()
	var avg time.Duration
	if times := ex.PipelineTimes(); len(times) > 0 {
		var sum time.Duration
		for _, d := range times {
			sum += d
		}
		avg = sum / time.Duration(len(times))
	}
	p := costmodel.Params{
		IO:          db.io,
		Probability: model.Probability,
		WindowStart: model.Start,
		WindowEnd:   model.End,
		Lineage:     db.lineage,
	}
	in := costmodel.Input{
		Ct:                 ex.Elapsed(),
		AvgPipelineTime:    avg,
		PipelineStateBytes: ex.EstimateNextBreakerCheckpointBytes(),
		EstTotal:           a.normal,
		NextBreakerEta:     prog.NextBreakerEta(),
		PipelineDiscard:    prog.PipelineSuspendDiscard(),
		Query:              a.info,
	}
	if e.lin != nil && e.lin.Err() == nil {
		in.LineageEnabled = true
		in.LineageTailBytes = e.lin.TailBytes()
		in.LineageStateBytes = e.lin.LastStateBytes()
		in.LineageReplay = e.lin.UnsealedFor()
	}
	d := costmodel.Select(in, p, a.Estimator)
	mark := e.ProcessedBytes()
	if ahead := d.ProcessSuspendAt - in.Ct; ahead > 0 && in.Ct > 0 {
		mark += int64(float64(mark) * float64(ahead) / float64(in.Ct))
	}
	d.ModelTime = time.Since(start)
	db.metrics.Counter(obs.Kinded(obs.MetricDecisions, d.Strategy.String())).Inc()
	db.metrics.DurationHistogram(obs.MetricDecisionTime).ObserveDuration(d.ModelTime)
	if tr := e.Trace(); tr != nil {
		tr.Event(obs.EvDecision,
			obs.A("strategy", d.Strategy.String()),
			obs.A("cost_redo", d.CostRedo),
			obs.A("cost_pipeline", d.CostPipeline),
			obs.A("cost_process", d.CostProcess),
			obs.A("cost_lineage", d.CostLineage),
			obs.A("process_suspend_at", d.ProcessSuspendAt),
			obs.A("process_suspend_bytes", mark),
			obs.A("ct", in.Ct),
			obs.A("avg_pipeline_time", in.AvgPipelineTime),
			obs.A("pipeline_state_bytes", in.PipelineStateBytes),
			obs.A("est_total", in.EstTotal),
			obs.A("next_breaker_eta", in.NextBreakerEta),
			obs.A("lineage_enabled", in.LineageEnabled),
			obs.A("lineage_tail_bytes", in.LineageTailBytes),
			obs.A("lineage_state_bytes", in.LineageStateBytes),
			obs.A("lineage_replay", in.LineageReplay),
			obs.A("pipeline_discard", in.PipelineDiscard),
			obs.A("query", in.Query.Name),
			obs.A("io", p.IO),
			obs.A("probability", p.Probability),
			obs.A("window_start", p.WindowStart),
			obs.A("window_end", p.WindowEnd),
			obs.A("lineage", p.Lineage),
			obs.A("model_time", d.ModelTime))
	}
	return d, mark
}

// scenarioRun is one run in flight: its report, its termination, and the
// context that dies at the termination instant.
type scenarioRun struct {
	a     *Adaptive
	rep   *AdaptiveReport
	ev    Event
	ctx   context.Context
	start time.Time
}

// begin starts a run's clock; its context dies at ev's termination instant.
func (a *Adaptive) begin(ev Event, k Strategy) (*scenarioRun, context.CancelFunc) {
	r := &scenarioRun{a: a, rep: &AdaptiveReport{Strategy: k, NormalTime: a.normal}, ev: ev, start: time.Now()}
	var cancel context.CancelFunc
	if ev.Terminates {
		r.ctx, cancel = context.WithDeadline(context.Background(), r.start.Add(ev.At))
	} else {
		r.ctx, cancel = context.WithCancel(context.Background())
	}
	return r, cancel
}

// execution builds the query's execution for a k run, not yet launched: a
// lineage run attaches a write-ahead log.
func (r *scenarioRun) execution(k Strategy) (*Execution, error) {
	var lineage *LineageConfig
	if k == LineageLevel {
		lineage = &LineageConfig{}
	}
	e, err := r.a.q.start(lineage)
	if err != nil {
		return nil, err
	}
	r.rep.Trace = e.Trace()
	return e, nil
}

// await waits for the launched execution e and settles the run; requested
// reports when e's suspension was requested, where SuspendLag starts.
func (r *scenarioRun) await(e *Execution, requested func() time.Time) (*AdaptiveReport, error) {
	err := e.Wait()
	if errors.Is(err, ErrSuspended) {
		r.rep.SuspendLag = time.Since(requested())
	}
	return r.settle(e, err)
}

// settle finishes a run whose execution e stopped with err: a completion,
// a suspension to persist and resume, or the termination.
func (r *scenarioRun) settle(e *Execution, err error) (*AdaptiveReport, error) {
	if errors.Is(err, ErrSuspended) {
		return r.resume(e)
	}
	e.discardLog()
	switch {
	case err == nil:
		r.rep.TotalTime = time.Since(r.start)
		return r.done()
	case errors.Is(r.ctx.Err(), context.DeadlineExceeded):
		return r.terminated()
	default:
		return nil, err
	}
}

// resume persists the suspended execution, checks the termination race,
// and continues from the persisted point to completion. A lineage
// suspension seals the log's tail; every other strategy writes a
// checkpoint file. A seal failure — the log's filesystem died — degrades to
// the process image: the execution is still quiesced with its full state in
// memory.
func (r *scenarioRun) resume(e *Execution) (*AdaptiveReport, error) {
	db, ctx := r.a.q.db, context.Background()
	offset := time.Since(r.start)
	file := ResumePoint{Target: strategy.TargetFile, Ref: db.NewCheckpointPath(r.a.q.name)}
	at := file
	if r.rep.Strategy == LineageLevel {
		at = ResumePoint{Target: strategy.TargetLineage, Ref: e.LineagePath()}
	}
	info, err := e.Persist(ctx, at, PersistOptions{})
	if err != nil && at != file {
		db.metrics.Counter(obs.MetricCheckpointFallback).Inc()
		if r.rep.Trace != nil {
			r.rep.Trace.Event(obs.EvCheckpointFallback, obs.A("from", "lineage"), obs.A("error", err.Error()))
		}
		r.rep.Strategy, at = ProcessLevel, file
		info, err = e.Persist(ctx, at, PersistOptions{})
	}
	defer db.Discard(at)
	if err != nil {
		return nil, err
	}
	r.rep.SuspendLatency = info.Duration
	if r.ev.Terminates && time.Since(r.start) > r.ev.At {
		// "Suspension fails to complete before reaching the termination
		// point": all progress and the partial checkpoint are lost.
		return r.terminated()
	}
	r.rep.Suspended = true
	r.rep.PersistedBytes = info.TotalBytes
	if at.Target == strategy.TargetLineage {
		r.rep.PersistedBytes = info.LogBytes
	}
	// The resource gap passes (not counted), then the query resumes and
	// continues e's trace. L_r is the whole of StartFrom: the restore onto
	// the query's plan.
	resumeStart := time.Now()
	resumed, err := r.a.q.StartFrom(ctx, at, e)
	if err != nil {
		return nil, err
	}
	r.rep.ResumeLatency = time.Since(resumeStart)
	err = resumed.Wait()
	resumed.discardLog()
	if err != nil {
		return nil, fmt.Errorf("riveter: resumed run: %w", err)
	}
	r.rep.TotalTime = offset + info.Duration + time.Since(resumeStart)
	return r.done()
}

// terminated accounts the time the termination wasted and re-executes the
// query from scratch.
func (r *scenarioRun) terminated() (*AdaptiveReport, error) {
	r.rep.Terminated = true
	start := time.Now()
	if _, err := r.a.q.Run(context.Background()); err != nil {
		return nil, err
	}
	r.rep.TotalTime = r.ev.At + time.Since(start)
	return r.done()
}

// done closes the loop on a run: the measured actuals the cost model's
// estimates are audited against.
func (r *scenarioRun) done() (*AdaptiveReport, error) {
	if tr := r.rep.Trace; tr != nil {
		tr.Event(obs.EvOutcome,
			obs.A("strategy", r.rep.Strategy.String()),
			obs.A("suspended", r.rep.Suspended),
			obs.A("terminated", r.rep.Terminated),
			obs.A("suspend_latency", r.rep.SuspendLatency),
			obs.A("resume_latency", r.rep.ResumeLatency),
			obs.A("persisted_bytes", r.rep.PersistedBytes),
			obs.A("total_time", r.rep.TotalTime),
			obs.A("normal_time", r.rep.NormalTime))
	}
	return r.rep, nil
}
