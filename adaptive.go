package riveter

import (
	"math/rand"
	"time"

	"github.com/riveterdb/riveter/internal/costmodel"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/riveter"
	"github.com/riveterdb/riveter/internal/strategy"
)

// Scenario describes an ephemeral-resource situation: a termination that
// occurs with Probability somewhere inside the window
// [WindowStartFrac, WindowEndFrac] of the query's normal execution time.
type Scenario struct {
	Probability     float64
	WindowStartFrac float64
	WindowEndFrac   float64
}

// AdaptiveReport describes one adaptive execution under a scenario.
type AdaptiveReport struct {
	// Strategy is what the cost model selected.
	Strategy Strategy
	// Suspended reports whether a checkpoint was persisted; Terminated
	// whether the simulated termination killed the run (forcing a redo).
	Suspended  bool
	Terminated bool
	// NormalTime is the calibrated baseline; TotalTime the effective
	// execution time including suspension/resumption/redo costs.
	NormalTime, TotalTime time.Duration
	// PersistedBytes is the checkpoint size (state plus any image padding).
	PersistedBytes int64
	// SelectionTime is the cost model's running time.
	SelectionTime time.Duration
	// Trace is the run's structured event stream — strategy decision with
	// cost-model inputs, suspension, checkpoint, restore, and outcome
	// events (nil unless the DB was opened WithTracing).
	Trace *obs.Trace
}

// Adaptive wraps a query with Riveter's adaptive suspension controller.
type Adaptive struct {
	q    *Query
	ctrl *riveter.Controller
	spec riveter.QuerySpec
	reg  *costmodel.RegressionEstimator
}

// NewAdaptive calibrates the query (one warm-up run plus timed runs) and
// trains the regression-based process-image estimator from a few observed
// suspensions, returning a controller ready for scenario runs.
func (q *Query) NewAdaptive() (*Adaptive, error) {
	ctrl := riveter.NewController(q.db.cat, q.db.workers, q.db.checkpointDir)
	ctrl.IO = q.db.io
	ctrl.FS = q.db.fsys
	ctrl.Rng = rand.New(rand.NewSource(1))
	ctrl.Metrics = q.db.metrics
	ctrl.Tracing = q.db.tracing
	spec, err := ctrl.Calibrate(q.name, q.node)
	if err != nil {
		return nil, err
	}
	reg := costmodel.NewRegressionEstimator()
	for _, frac := range []float64{0.3, 0.6, 0.9} {
		rep, err := ctrl.SuspendAtFraction(spec, strategy.Process, frac)
		if err != nil {
			return nil, err
		}
		if rep.Suspended {
			reg.Observe(costmodel.Sample{Query: spec.Info, Fraction: frac, Bytes: rep.PersistedBytes})
		}
	}
	if reg.NumSamples() > 0 {
		ctrl.Estimator = reg
	} else {
		ctrl.Estimator = costmodel.OptimizerEstimator{}
	}
	return &Adaptive{q: q, ctrl: ctrl, spec: spec, reg: reg}, nil
}

// NormalTime returns the calibrated baseline execution time.
func (a *Adaptive) NormalTime() time.Duration { return a.spec.EstTotal }

// Run executes the query under the scenario: the termination is sampled,
// the resource alert fires at the window start, the cost model picks the
// cheapest strategy, and the run completes (after a resume or a redo when
// applicable).
func (a *Adaptive) Run(sc Scenario) (*AdaptiveReport, error) {
	s := riveter.Scenario{
		Probability:     sc.Probability,
		WindowStartFrac: sc.WindowStartFrac,
		WindowEndFrac:   sc.WindowEndFrac,
	}
	ev := a.ctrl.Sample(a.spec, s)
	rep, err := a.ctrl.RunAdaptive(a.spec, s, ev)
	if err != nil {
		return nil, err
	}
	return &AdaptiveReport{
		Strategy:       rep.Strategy,
		Suspended:      rep.Suspended,
		Terminated:     rep.Terminated,
		NormalTime:     rep.NormalTime,
		TotalTime:      rep.TotalTime,
		PersistedBytes: rep.PersistedBytes,
		SelectionTime:  rep.SelectionTime,
		Trace:          rep.Trace,
	}, nil
}

// SuspendAt forces a suspension of the given kind at approximately the
// given fraction of execution and reports the persisted checkpoint size —
// the measurement behind the paper's Figs. 6-8.
func (a *Adaptive) SuspendAt(k Strategy, frac float64) (*AdaptiveReport, error) {
	rep, err := a.ctrl.SuspendAtFraction(a.spec, k, frac)
	if err != nil {
		return nil, err
	}
	return &AdaptiveReport{
		Strategy:       k,
		Suspended:      rep.Suspended,
		NormalTime:     rep.NormalTime,
		TotalTime:      rep.TotalTime,
		PersistedBytes: rep.PersistedBytes,
		Trace:          rep.Trace,
	}, nil
}
