package riveter

import (
	"math/rand"
	"testing"
	"time"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/costmodel"
	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/strategy"
	"github.com/riveterdb/riveter/internal/tpch"
	"github.com/riveterdb/riveter/internal/vector"
)

// slowCatalog returns a TPC-H catalog big enough that queries take tens of
// milliseconds, giving the timers room to act.
func slowCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat, err := tpch.Generate(tpch.Config{SF: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func testController(t testing.TB, cat *catalog.Catalog) *Controller {
	t.Helper()
	c := NewController(cat, 2, t.TempDir())
	c.Rng = rand.New(rand.NewSource(11))
	c.Estimator = costmodel.OptimizerEstimator{}
	return c
}

func calibrated(t testing.TB, c *Controller, id int) QuerySpec {
	t.Helper()
	q, err := tpch.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	node := q.Build(plan.NewBuilder(c.Cat), 0.05)
	spec, err := c.Calibrate(q.Name, node)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestCalibrate(t *testing.T) {
	cat := slowCatalog(t)
	c := testController(t, cat)
	spec := calibrated(t, c, 1)
	if spec.EstTotal <= 0 {
		t.Fatal("calibration produced zero time")
	}
	if spec.Info.InputBytes <= 0 || spec.Info.Ops.Aggregates == 0 {
		t.Errorf("query info incomplete: %+v", spec.Info)
	}
}

func TestForcedRedoWithoutTermination(t *testing.T) {
	cat := slowCatalog(t)
	c := testController(t, cat)
	spec := calibrated(t, c, 6)
	rep, err := c.RunForced(spec, Scenario{Probability: 0, WindowStartFrac: 0.25, WindowEndFrac: 0.5}, Event{}, strategy.Redo)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Suspended || rep.Terminated {
		t.Errorf("clean redo run: %+v", rep)
	}
	if rep.TotalTime <= 0 {
		t.Error("no time recorded")
	}
}

func TestForcedRedoWithTermination(t *testing.T) {
	cat := slowCatalog(t)
	c := testController(t, cat)
	spec := calibrated(t, c, 3)
	// Terminate early so even a faster-than-calibrated run gets killed;
	// retry to absorb timer jitter.
	var rep *Report
	for attempt := 0; attempt < 5; attempt++ {
		ev := Event{Terminates: true, At: spec.EstTotal / 10}
		var err error
		rep, err = c.RunForced(spec, Scenario{Probability: 1, WindowStartFrac: 0.05, WindowEndFrac: 0.15}, ev, strategy.Redo)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Terminated {
			break
		}
	}
	if !rep.Terminated {
		t.Fatal("termination must kill the redo run")
	}
	if rep.TotalTime < spec.EstTotal/10 {
		t.Errorf("total %v must include the wasted time", rep.TotalTime)
	}
}

func TestForcedPipelineSuspension(t *testing.T) {
	cat := slowCatalog(t)
	c := testController(t, cat)
	spec := calibrated(t, c, 3)
	rep, err := c.SuspendAtFraction(spec, strategy.Pipeline, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Suspended {
		t.Skip("query completed before the suspension request landed (timing)")
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
	cat := slowCatalog(t)
	c := testController(t, cat)
	spec := calibrated(t, c, 1)
	rep, err := c.SuspendAtFraction(spec, strategy.Process, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Suspended {
		t.Skip("query completed before the suspension request landed (timing)")
	}
	if rep.PersistedBytes <= 0 {
		t.Error("no bytes persisted")
	}
	// Process-level checkpoints include image padding, so they should
	// comfortably exceed the raw pipeline state of an aggregation query.
	if rep.Strategy != strategy.Process {
		t.Errorf("strategy = %v", rep.Strategy)
	}
}

// forcedLineage runs spec under a forced lineage suspension requested
// mid-window, retrying until one lands before the query finishes. fsys, when
// set, builds the filesystem of each attempt; every attempt gets a fresh
// metrics registry.
func forcedLineage(t *testing.T, c *Controller, spec QuerySpec, fsys func() faultfs.FS) *Report {
	t.Helper()
	sc := Scenario{Probability: 1, WindowStartFrac: 0.4, WindowEndFrac: 0.6}
	for attempt := 0; attempt < 5; attempt++ {
		if fsys != nil {
			c.FS = fsys()
		}
		c.Metrics = obs.NewRegistry()
		rep, err := c.RunForced(spec, sc, Event{}, strategy.Lineage)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Suspended {
			return rep
		}
	}
	t.Fatal("no lineage suspension landed before the query finished")
	return nil
}

func TestForcedLineageSuspension(t *testing.T) {
	cat := slowCatalog(t)
	c := testController(t, cat)
	spec := calibrated(t, c, 3)
	rep := forcedLineage(t, c, spec, nil)
	if rep.Strategy != strategy.Lineage || rep.PersistedBytes <= 0 {
		t.Errorf("strategy %v, persisted %d bytes; want lineage and a non-empty log", rep.Strategy, rep.PersistedBytes)
	}
	if n := c.Metrics.Counter(obs.MetricCheckpointFallback).Value(); n != 0 {
		t.Errorf("checkpoint.fallback = %d on a healthy log", n)
	}
}

// TestForcedLineageFallsBackToProcessImage: when the log's device fails
// every sync after the log's creation, the seal fails and the controller
// persists the process image instead.
func TestForcedLineageFallsBackToProcessImage(t *testing.T) {
	cat := slowCatalog(t)
	c := testController(t, cat)
	spec := calibrated(t, c, 3)
	rep := forcedLineage(t, c, spec, func() faultfs.FS {
		return faultfs.New(nil).AddFault(faultfs.Fault{Op: faultfs.OpSync, PathSubstr: ".rvlg", Nth: 2})
	})
	if rep.Strategy != strategy.Process || rep.PersistedBytes <= 0 {
		t.Errorf("strategy %v, persisted %d bytes; want the process image", rep.Strategy, rep.PersistedBytes)
	}
	if n := c.Metrics.Counter(obs.MetricCheckpointFallback).Value(); n != 1 {
		t.Errorf("checkpoint.fallback = %d, want 1", n)
	}
}

func TestProcessImageGrowsWithSuspensionPoint(t *testing.T) {
	cat := slowCatalog(t)
	c := testController(t, cat)
	spec := calibrated(t, c, 1)
	var sizes []int64
	for _, frac := range []float64{0.2, 0.5, 0.8} {
		var best int64
		for attempt := 0; attempt < 3; attempt++ {
			rep, err := c.SuspendAtFraction(spec, strategy.Process, frac)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Suspended {
				best = rep.PersistedBytes
				break
			}
		}
		if best == 0 {
			t.Skip("timing: could not land suspensions")
		}
		sizes = append(sizes, best)
	}
	if !(sizes[0] < sizes[2]) {
		t.Errorf("process image should grow with progress: %v", sizes)
	}
}

func TestAdaptiveContinuesWhenWindowFar(t *testing.T) {
	cat := slowCatalog(t)
	c := testController(t, cat)
	spec := calibrated(t, c, 3)
	// Window far beyond the query's lifetime: cost model should pick redo
	// (i.e., keep running) and the query completes untouched.
	rep, err := c.RunAdaptive(spec, Scenario{Probability: 1, WindowStartFrac: 50, WindowEndFrac: 60}, Event{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Suspended || rep.Terminated {
		t.Errorf("adaptive run should complete: %+v", rep)
	}
	if rep.Strategy != strategy.Redo {
		t.Errorf("strategy = %v, want redo (continue)", rep.Strategy)
	}
}

func TestAdaptiveSuspendsUnderImminentTermination(t *testing.T) {
	cat := slowCatalog(t)
	c := testController(t, cat)
	// Train a quick regression estimator so process probing works. Q18 runs
	// long enough (tens of milliseconds) that the work at stake dwarfs the
	// I/O profile's fixed suspend+resume latency; on a query of a few
	// milliseconds the two are a toss-up and redo may legitimately win.
	reg := costmodel.NewRegressionEstimator()
	spec := calibrated(t, c, 18)
	for _, frac := range []float64{0.2, 0.5, 0.8} {
		rep, err := c.SuspendAtFraction(spec, strategy.Process, frac)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Suspended {
			reg.Observe(costmodel.Sample{Query: spec.Info, Fraction: frac, Bytes: rep.PersistedBytes})
		}
	}
	if reg.NumSamples() < 2 {
		t.Skip("timing: not enough training suspensions landed")
	}
	c.Estimator = reg

	// Certain termination, alert at 60% of execution with a window
	// stretching well past completion: 60% of the work is at stake and the
	// suspension exposure is a small fraction of the window, so the cost
	// model must choose a suspension strategy by a wide margin.
	var suspended int
	for i := 0; i < 5; i++ {
		rep, err := c.RunAdaptive(spec, Scenario{Probability: 1, WindowStartFrac: 0.6, WindowEndFrac: 2.0}, Event{})
		if err != nil {
			t.Fatal(err)
		}
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

func TestReportOverhead(t *testing.T) {
	r := &Report{TotalTime: 100 * time.Millisecond, NormalTime: 80 * time.Millisecond}
	if r.Overhead() != 20*time.Millisecond {
		t.Error("overhead math wrong")
	}
	r2 := &Report{TotalTime: 50 * time.Millisecond, NormalTime: 80 * time.Millisecond}
	if r2.Overhead() != 0 {
		t.Error("overhead must clamp at zero")
	}
}

func TestScenarioModel(t *testing.T) {
	sc := Scenario{Probability: 0.5, WindowStartFrac: 0.25, WindowEndFrac: 0.75}
	m := sc.Model(time.Second)
	if m.Start != 250*time.Millisecond || m.End != 750*time.Millisecond || m.Probability != 0.5 {
		t.Errorf("model = %+v", m)
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
	_ = vector.Value{}
}

func TestSampleRespectsProbability(t *testing.T) {
	cat := slowCatalog(t)
	c := testController(t, cat)
	spec := QuerySpec{Name: "x", EstTotal: time.Second}
	never := Scenario{Probability: 0, WindowStartFrac: 0, WindowEndFrac: 1}
	for i := 0; i < 50; i++ {
		if ev := c.Sample(spec, never); ev.Terminates {
			t.Fatal("P=0 must never terminate")
		}
	}
	always := Scenario{Probability: 1, WindowStartFrac: 0.5, WindowEndFrac: 0.6}
	for i := 0; i < 50; i++ {
		ev := c.Sample(spec, always)
		if !ev.Terminates {
			t.Fatal("P=1 must terminate")
		}
		if ev.At < 500*time.Millisecond || ev.At > 600*time.Millisecond {
			t.Fatalf("termination at %v outside window", ev.At)
		}
	}
}
