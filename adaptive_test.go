package riveter

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/riveterdb/riveter/internal/cloud"
	"github.com/riveterdb/riveter/internal/costmodel"
	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/obs"
)

// scenario is the database the scenario tests share: TPC-H at SF 0.05, big
// enough that queries take tens of milliseconds, with its calibrations.
var scenario struct {
	once sync.Once
	db   *DB
	err  error
	cal  map[int]*Adaptive
}

func TestMain(m *testing.M) {
	code := m.Run()
	if scenario.db != nil {
		os.RemoveAll(scenario.db.CheckpointDir())
	}
	os.Exit(code)
}

// calibrated returns a controller for TPC-H query id on the shared
// database, using the optimizer-based estimator.
func calibrated(t testing.TB, id int) *Adaptive {
	t.Helper()
	scenario.once.Do(func() {
		dir, err := os.MkdirTemp("", "riveter-scenario-*")
		if err != nil {
			scenario.err = err
			return
		}
		scenario.db = Open(WithWorkers(2), WithCheckpointDir(dir))
		scenario.err = scenario.db.GenerateTPCH(0.05)
		scenario.cal = map[int]*Adaptive{}
	})
	if scenario.err != nil {
		t.Fatal(scenario.err)
	}
	a, ok := scenario.cal[id]
	if !ok {
		q, err := scenario.db.PrepareTPCH(id)
		if err != nil {
			t.Fatal(err)
		}
		if a, err = q.Calibrate(); err != nil {
			t.Fatal(err)
		}
		scenario.cal[id] = a
	}
	c := *a
	c.Estimator = costmodel.OptimizerEstimator{}
	return &c
}

// clean checks a forced or adaptive run's results: the run succeeded, and
// the cleanup left no checkpoint or lineage log in db's checkpoint
// directory.
func clean(t testing.TB, db *DB) func(*AdaptiveReport, error) *AdaptiveReport {
	return func(rep *AdaptiveReport, err error) *AdaptiveReport {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, pattern := range []string{"*.rvck", "*.rvlg"} {
			if left, _ := filepath.Glob(filepath.Join(db.CheckpointDir(), pattern)); len(left) > 0 {
				t.Errorf("run left %v behind", left)
			}
		}
		return rep
	}
}

func TestCalibrate(t *testing.T) {
	a := calibrated(t, 1)
	if a.normal <= 0 {
		t.Fatal("calibration produced zero time")
	}
	if a.info.InputBytes <= 0 || a.info.Ops.Aggregates == 0 {
		t.Errorf("query info incomplete: %+v", a.info)
	}
}

func TestForcedRedoWithoutTermination(t *testing.T) {
	a := calibrated(t, 6)
	rep := clean(t, a.q.db)(a.RunForced(Scenario{Probability: 0, WindowStartFrac: 0.25, WindowEndFrac: 0.5}, Event{}, Redo))
	if rep.Suspended || rep.Terminated {
		t.Errorf("clean redo run: %+v", rep)
	}
	if rep.TotalTime <= 0 {
		t.Error("no time recorded")
	}
}

func TestForcedRedoWithTermination(t *testing.T) {
	a := calibrated(t, 3)
	// Terminate at a tenth of the calibrated time: the run's context dies
	// there, long before even a fast run could finish.
	ev := Event{Terminates: true, At: a.normal / 10}
	rep := clean(t, a.q.db)(a.RunForced(Scenario{Probability: 1, WindowStartFrac: 0.05, WindowEndFrac: 0.15}, ev, Redo))
	if !rep.Terminated {
		t.Fatal("termination must kill the redo run")
	}
	if rep.TotalTime < a.normal/10 {
		t.Errorf("total %v must include the wasted time", rep.TotalTime)
	}
}

func TestForcedPipelineSuspension(t *testing.T) {
	a := calibrated(t, 3)
	rep := clean(t, a.q.db)(a.SuspendAt(PipelineLevel, 0.3))
	if !rep.Suspended {
		t.Fatal("query completed before the suspension landed")
	}
	if rep.PersistedBytes <= 0 {
		t.Error("no bytes persisted")
	}
	if rep.SuspendLatency <= 0 || rep.ResumeLatency <= 0 {
		t.Errorf("latencies: %v / %v", rep.SuspendLatency, rep.ResumeLatency)
	}
	if rep.SuspendLag < 0 {
		t.Error("negative lag")
	}
}

func TestForcedProcessSuspension(t *testing.T) {
	a := calibrated(t, 1)
	rep := clean(t, a.q.db)(a.SuspendAt(ProcessLevel, 0.4))
	if !rep.Suspended {
		t.Fatal("query completed before the suspension landed")
	}
	if rep.PersistedBytes <= 0 {
		t.Error("no bytes persisted")
	}
	// Process-level checkpoints include image padding, so they should
	// comfortably exceed the raw pipeline state of an aggregation query.
	if rep.Strategy != ProcessLevel {
		t.Errorf("strategy = %v", rep.Strategy)
	}
}

// forcedLineage runs a under a lineage suspension armed at half its
// processed bytes and returns the report and the run's checkpoint.fallback
// count.
func forcedLineage(t *testing.T, a *Adaptive) (*AdaptiveReport, int64) {
	t.Helper()
	fallbacks := a.q.db.Metrics().Counter(obs.MetricCheckpointFallback)
	before := fallbacks.Value()
	rep := clean(t, a.q.db)(a.SuspendAt(LineageLevel, 0.5))
	if !rep.Suspended {
		t.Fatal("no lineage suspension landed before the query finished")
	}
	return rep, fallbacks.Value() - before
}

func TestForcedLineageSuspension(t *testing.T) {
	rep, n := forcedLineage(t, calibrated(t, 3))
	if rep.Strategy != LineageLevel || rep.PersistedBytes <= 0 {
		t.Errorf("strategy %v, persisted %d bytes; want lineage and a non-empty log", rep.Strategy, rep.PersistedBytes)
	}
	if n != 0 {
		t.Errorf("checkpoint.fallback = %d on a healthy log", n)
	}
}

// TestForcedLineageFallsBackToProcessImage: when the log's device fails
// every sync after the log's creation, the seal fails and the controller
// persists the process image instead.
func TestForcedLineageFallsBackToProcessImage(t *testing.T) {
	fsys := faultfs.New(nil).AddFault(faultfs.Fault{Op: faultfs.OpSync, PathSubstr: ".rvlg", Nth: 2})
	db := Open(WithWorkers(2), WithCheckpointDir(t.TempDir()), WithFS(fsys))
	if err := db.GenerateTPCH(0.02); err != nil {
		t.Fatal(err)
	}
	q, err := db.PrepareTPCH(3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := q.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	rep, n := forcedLineage(t, a)
	if rep.Strategy != ProcessLevel || rep.PersistedBytes <= 0 {
		t.Errorf("strategy %v, persisted %d bytes; want the process image", rep.Strategy, rep.PersistedBytes)
	}
	if n != 1 {
		t.Errorf("checkpoint.fallback = %d, want 1", n)
	}
}

func TestProcessImageGrowsWithSuspensionPoint(t *testing.T) {
	a := calibrated(t, 1)
	var sizes []int64
	for _, frac := range []float64{0.2, 0.5, 0.8} {
		rep := clean(t, a.q.db)(a.SuspendAt(ProcessLevel, frac))
		if !rep.Suspended {
			t.Fatalf("query completed before the suspension at %.0f%% landed", frac*100)
		}
		sizes = append(sizes, rep.PersistedBytes)
	}
	if !(sizes[0] < sizes[2]) {
		t.Errorf("process image should grow with progress: %v", sizes)
	}
}

func TestAdaptiveContinuesWhenWindowFar(t *testing.T) {
	a := calibrated(t, 3)
	// Window far beyond the query's lifetime: cost model should pick redo
	// (i.e., keep running) and the query completes untouched.
	rep := clean(t, a.q.db)(a.RunAdaptive(Scenario{Probability: 1, WindowStartFrac: 50, WindowEndFrac: 60}, Event{}))
	if rep.Suspended || rep.Terminated {
		t.Errorf("adaptive run should complete: %+v", rep)
	}
	if rep.Strategy != Redo {
		t.Errorf("strategy = %v, want redo (continue)", rep.Strategy)
	}
}

func TestAdaptiveSuspendsUnderImminentTermination(t *testing.T) {
	// Train a quick regression estimator so process probing works. Q18 runs
	// long enough (tens of milliseconds) that the work at stake dwarfs the
	// I/O profile's fixed suspend+resume latency; on a query of a few
	// milliseconds the two are a toss-up and redo may legitimately win.
	a := calibrated(t, 18)
	ck := clean(t, a.q.db)
	reg := costmodel.NewRegressionEstimator()
	for _, frac := range []float64{0.2, 0.5, 0.8} {
		if rep := ck(a.SuspendAt(ProcessLevel, frac)); rep.Suspended {
			reg.Observe(costmodel.Sample{Query: a.info, Fraction: frac, Bytes: rep.PersistedBytes})
		}
	}
	if reg.NumSamples() < 2 {
		t.Fatal("not enough training suspensions landed")
	}
	a.Estimator = reg

	// Certain termination, alert at 60% of execution with a window
	// stretching well past completion: 60% of the work is at stake and the
	// suspension exposure is a small fraction of the window, so the cost
	// model must choose a suspension strategy by a wide margin.
	var suspended int
	for i := 0; i < 5; i++ {
		rep := ck(a.RunAdaptive(Scenario{Probability: 1, WindowStartFrac: 0.6, WindowEndFrac: 2.0}, Event{}))
		if rep.Suspended {
			suspended++
			if rep.SelectionTime <= 0 {
				t.Error("selection time missing")
			}
		}
	}
	if suspended == 0 {
		t.Error("adaptive controller never suspended under certain termination")
	}
}

// suspendedAt starts a's query with a process-level suspension armed at
// frac of its calibrated bytes, lineage attaching a log, and waits for it.
func suspendedAt(ctx context.Context, t *testing.T, a *Adaptive, frac float64, lineage *LineageConfig) *Execution {
	t.Helper()
	e, err := a.q.start(lineage)
	if err != nil {
		t.Fatal(err)
	}
	at := int64(frac * float64(a.processed))
	if err := e.SuspendWhen(ProcessLevel, at); err != nil {
		t.Fatal(err)
	}
	if err := e.launch(ctx).Wait(); !errors.Is(err, ErrSuspended) {
		t.Fatalf("suspension armed at %d bytes: Wait = %v", at, err)
	}
	return e
}

// TestDecisionPricesAttachedLineageLog: decide reads the lineage terms
// from the execution's own log. With a healthy log the lineage cost is the
// formula over the log's accessors; a log whose breaker sync failed prices
// lineage out exactly as no log does.
func TestDecisionPricesAttachedLineageLog(t *testing.T) {
	for _, failSync := range []bool{false, true} {
		fsys := faultfs.New(nil)
		if failSync {
			// The first sync initializes the log; every breaker's fails.
			fsys.AddFault(faultfs.Fault{Op: faultfs.OpSync, PathSubstr: ".rvlg", Nth: 2})
		}
		db := Open(WithWorkers(2), WithCheckpointDir(t.TempDir()), WithFS(fsys), WithTracing())
		if err := db.GenerateTPCH(0.02); err != nil {
			t.Fatal(err)
		}
		q, err := db.PrepareTPCH(3)
		if err != nil {
			t.Fatal(err)
		}
		a, err := q.Calibrate()
		if err != nil {
			t.Fatal(err)
		}
		e := suspendedAt(context.Background(), t, a, 2.0/3, &LineageConfig{})
		if failed := e.lin.Err() != nil; failed != failSync {
			t.Fatalf("log failed = %v, want %v: no breaker synced before the suspension", failed, failSync)
		}
		// A certain termination that is already due exposes the whole
		// replay window: Cost_lin = L_s(tail) + L_r(state) + 2·replay.
		d, _ := a.decide(e, cloud.TerminationModel{Probability: 1, End: time.Nanosecond})
		dec, ok := e.Trace().Find(obs.EvDecision)
		if !ok {
			t.Fatal("trace missing strategy.decision event")
		}
		if dec.Attr("cost_lineage") != d.CostLineage || dec.Attr("lineage_enabled") != !failSync {
			t.Errorf("decision event %+v does not match decision %+v", dec, d)
		}
		if failSync {
			if off := costmodel.Select(costmodel.Input{}, costmodel.Params{}, nil).CostLineage; d.CostLineage != off {
				t.Errorf("lineage cost on a failed log = %v, want %v (priced out)", d.CostLineage, off)
			}
		} else {
			tail, state := dec.Attr("lineage_tail_bytes").(int64), dec.Attr("lineage_state_bytes").(int64)
			replay := dec.Attr("lineage_replay").(time.Duration)
			if tail != e.lin.TailBytes() || state != e.lin.LastStateBytes() || state <= 0 {
				t.Errorf("tail %d, state %d bytes; the log reports %d and %d", tail, state, e.lin.TailBytes(), e.lin.LastStateBytes())
			}
			if replay <= 0 || replay > e.lin.UnsealedFor() {
				t.Errorf("replay %v, the log has been unsealed for %v", replay, e.lin.UnsealedFor())
			}
			want := db.lineage.SealLatency(tail) + db.io.ResumeLatency(state) + 2*replay
			if d.CostLineage != want {
				t.Errorf("lineage cost = %v, want %v", d.CostLineage, want)
			}
		}
		e.discardLog()
	}
}

// stepImage is a SizeEstimator whose image shrinks with progress: a
// gigabyte up to the fraction from, nothing after it.
type stepImage struct{ from float64 }

func (s stepImage) EstimateProcessImage(_ costmodel.QueryInfo, frac float64) int64 {
	if frac <= s.from {
		return 1 << 30
	}
	return 0
}

// TestAdaptiveRequestsProcessAtProbedInstant: when the probe prices the
// process-level suspension cheapest at a later instant, the execution
// continues and the suspension is armed at the processed-bytes mark that
// instant converts to at the run's observed rate, not requested at the
// decision.
func TestAdaptiveRequestsProcessAtProbedInstant(t *testing.T) {
	db := Open(WithWorkers(2), WithCheckpointDir(t.TempDir()), WithTracing())
	if err := db.GenerateTPCH(0.02); err != nil {
		t.Fatal(err)
	}
	// A device with a negligible fixed cost, so an empty image costs less
	// to persist than the progress redo would lose.
	db.io = costmodel.IOProfile{WriteBytesPerSec: 1 << 30, ReadBytesPerSec: 1 << 30, FixedLatency: time.Microsecond}
	q, err := db.PrepareTPCH(3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := q.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	r, cancel := a.begin(Event{}, Redo)
	defer cancel()
	e := suspendedAt(r.ctx, t, a, 1.0/3, nil)
	r.rep.Trace = e.Trace()
	ct, processed := e.ex.Elapsed(), e.ProcessedBytes()
	// A third of a run can outlast the calibrated whole under load; a
	// baseline past ct keeps the probed fractions below 1, where the step is.
	a.normal = max(a.normal, 4*ct)
	a.Estimator = stepImage{from: float64(ct) / float64(a.normal)}
	// Inside a wide window: redo loses C_t, an empty image costs microseconds.
	rep := clean(t, db)(r.act(e, cloud.TerminationModel{Probability: 1, Start: ct / 2, End: 1000 * a.normal}))

	dec, ok := rep.Trace.Find(obs.EvDecision)
	if !ok {
		t.Fatal("trace missing strategy.decision event")
	}
	at := dec.Attr("process_suspend_at").(time.Duration)
	if dec.Attr("strategy") != "process" || at <= ct {
		t.Fatalf("decision %+v: want process-level at an instant after ct %v", dec, ct)
	}
	if !rep.Suspended || rep.Strategy != ProcessLevel {
		t.Fatalf("report %+v: want a process-level suspension", rep)
	}
	var req *obs.Event
	for _, ev := range rep.Trace.Events() {
		if ev.Name == obs.EvSuspendRequested && ev.Seq > dec.Seq {
			req = &ev
			break
		}
	}
	if req == nil {
		t.Fatal("no suspension requested after the decision")
	}
	// One morsel of the widest scan bounds the conversion's rounding.
	var morsel int64
	for _, p := range e.ex.Plan().Pipelines {
		if src, ok := p.Source.(*engine.TableSource); ok {
			morsel = max(morsel, src.MorselBytes(0))
		}
	}
	want := processed + int64(float64(processed)*float64(at-ct)/float64(ct))
	if mark := dec.Attr("process_suspend_bytes").(int64); mark <= processed || mark < want-morsel || mark > want+morsel {
		t.Errorf("mark at %d bytes; the probed instant %v is %d bytes at the observed rate (%d bytes in %v, morsel %d)",
			mark, at, want, processed, ct, morsel)
	}
}

func TestReportOverhead(t *testing.T) {
	r := &AdaptiveReport{TotalTime: 100 * time.Millisecond, NormalTime: 80 * time.Millisecond}
	if r.Overhead() != 20*time.Millisecond {
		t.Error("overhead math wrong")
	}
	r2 := &AdaptiveReport{TotalTime: 50 * time.Millisecond, NormalTime: 80 * time.Millisecond}
	if r2.Overhead() != 0 {
		t.Error("overhead must clamp at zero")
	}
}

func TestScenarioModel(t *testing.T) {
	sc := Scenario{Probability: 0.5, WindowStartFrac: 0.25, WindowEndFrac: 0.75}
	m := sc.model(time.Second)
	if m.Start != 250*time.Millisecond || m.End != 750*time.Millisecond || m.Probability != 0.5 {
		t.Errorf("model = %+v", m)
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSampleRespectsProbability(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	never := Scenario{Probability: 0, WindowStartFrac: 0, WindowEndFrac: 1}
	for i := 0; i < 50; i++ {
		if ev := never.Sample(time.Second, rng); ev.Terminates {
			t.Fatal("P=0 must never terminate")
		}
	}
	always := Scenario{Probability: 1, WindowStartFrac: 0.5, WindowEndFrac: 0.6}
	for i := 0; i < 50; i++ {
		ev := always.Sample(time.Second, rng)
		if !ev.Terminates {
			t.Fatal("P=1 must terminate")
		}
		if ev.At < 500*time.Millisecond || ev.At > 600*time.Millisecond {
			t.Fatalf("termination at %v outside window", ev.At)
		}
	}
}

// BenchmarkStrategyLatency compares suspend+persist latency across the two
// persisting strategies at the same suspension point (an ablation of the
// strategy choice itself).
func BenchmarkStrategyLatency(b *testing.B) {
	a := calibrated(b, 3)
	for _, k := range []Strategy{PipelineLevel, ProcessLevel} {
		b.Run(k.String(), func(b *testing.B) {
			var suspendTotal, resumeTotal int64
			n := 0
			for i := 0; i < b.N; i++ {
				rep, err := a.SuspendAt(k, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Suspended {
					suspendTotal += rep.SuspendLatency.Nanoseconds()
					resumeTotal += rep.ResumeLatency.Nanoseconds()
					n++
				}
			}
			if n > 0 {
				b.ReportMetric(float64(suspendTotal)/float64(n), "Ls-ns/op")
				b.ReportMetric(float64(resumeTotal)/float64(n), "Lr-ns/op")
			}
		})
	}
}
