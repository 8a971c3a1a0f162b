package costmodel

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

func TestIOProfileLatencies(t *testing.T) {
	p := IOProfile{WriteBytesPerSec: 100 << 20, ReadBytesPerSec: 200 << 20, FixedLatency: time.Millisecond}
	if got := p.SuspendLatency(100 << 20); got != time.Millisecond+time.Second {
		t.Errorf("suspend latency = %v", got)
	}
	if got := p.ResumeLatency(200 << 20); got != time.Millisecond+time.Second {
		t.Errorf("resume latency = %v", got)
	}
	if p.SuspendLatency(0) != time.Millisecond {
		t.Error("zero-byte latency must be the fixed latency")
	}
	z := IOProfile{FixedLatency: time.Millisecond}
	if z.SuspendLatency(1<<30) != time.Millisecond || z.ResumeLatency(1<<30) != time.Millisecond {
		t.Error("zero-bandwidth profile must fall back to fixed latency")
	}
}

func TestSuspendLatencyMonotone(t *testing.T) {
	p := DefaultIOProfile()
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return p.SuspendLatency(x) <= p.SuspendLatency(y) && p.ResumeLatency(x) <= p.ResumeLatency(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func testQueryInfo(t *testing.T) (QueryInfo, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New()
	tbl, err := cat.Create("t", catalog.NewSchema(
		catalog.Col("a", vector.TypeInt64), catalog.Col("b", vector.TypeFloat64)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		_ = tbl.AppendRow(vector.NewInt64(int64(i%100)), vector.NewFloat64(float64(i)))
	}
	b := plan.NewBuilder(cat)
	r := b.Scan("t")
	node := r.Join(b.Scan("t").Rename("o."), plan.InnerJoin, []string{"a"}, []string{"o.a"}).
		Agg([]string{"a"}, plan.CountStar("n")).Node()
	return BuildQueryInfo("test", node, cat), cat
}

func TestBuildQueryInfo(t *testing.T) {
	info, _ := testQueryInfo(t)
	if info.InputRows != 5000 {
		t.Errorf("input rows = %d (each base table counted once)", info.InputRows)
	}
	if info.InputBytes <= 0 {
		t.Error("input bytes must be positive")
	}
	if info.Ops.Joins != 1 || info.Ops.Aggregates != 1 {
		t.Errorf("ops = %+v", info.Ops)
	}
}

func TestRegressionEstimatorLearnsLinearModel(t *testing.T) {
	info, _ := testQueryInfo(t)
	est := NewRegressionEstimator()
	// Ground truth: size = 1000 + 0.5 * inputBytes * fraction.
	truth := func(frac float64) int64 {
		return 1000 + int64(0.5*float64(info.InputBytes)*frac)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		frac := rng.Float64()
		est.Observe(Sample{Query: info, Fraction: frac, Bytes: truth(frac)})
	}
	if est.NumSamples() != 200 {
		t.Fatalf("samples = %d", est.NumSamples())
	}
	if err := est.Fit(); err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.9} {
		got := est.EstimateProcessImage(info, frac)
		want := truth(frac)
		ratio := float64(got) / float64(want)
		if ratio < 0.8 || ratio > 1.2 {
			t.Errorf("fraction %v: estimate %d vs truth %d (ratio %v)", frac, got, want, ratio)
		}
	}
}

func TestRegressionEstimatorUntrained(t *testing.T) {
	est := NewRegressionEstimator()
	info, _ := testQueryInfo(t)
	if got := est.EstimateProcessImage(info, 0.5); got != 0 {
		t.Errorf("untrained estimate = %d, want 0", got)
	}
	if err := est.Fit(); err == nil {
		t.Error("fitting with no samples must fail")
	}
}

func TestOptimizerEstimatorOverestimatesJoins(t *testing.T) {
	info, _ := testQueryInfo(t)
	est := OptimizerEstimator{}
	got := est.EstimateProcessImage(info, 0.5)
	// Naive estimate: join card 5000*5000*0.1 = 2.5e6 rows... aggregated to
	// child*0.1; the core operator nearest the root is the aggregate.
	if got <= info.InputBytes {
		t.Errorf("optimizer estimate %d should dwarf actual input %d", got, info.InputBytes)
	}
	// Fraction scales the estimate.
	if est.EstimateProcessImage(info, 1.0) <= got {
		t.Error("estimate must grow with fraction")
	}
}

func TestSolveLinearSystem(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=5, x+3y=10 -> x=1, y=3
	if !approx(x[0], 1) || !approx(x[1], 3) {
		t.Errorf("solution = %v", x)
	}
	if _, err := solve([][]float64{{0, 0}, {0, 0}}, []float64{1, 1}); err == nil {
		t.Error("singular system must fail")
	}
}

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func algoParams() Params {
	return Params{
		IO:          IOProfile{WriteBytesPerSec: 100 << 20, ReadBytesPerSec: 100 << 20, FixedLatency: time.Millisecond},
		Probability: 1.0,
		WindowStart: 500 * time.Millisecond,
		WindowEnd:   800 * time.Millisecond,
	}
}

// constEstimator returns a fixed size regardless of fraction.
type constEstimator int64

func (c constEstimator) EstimateProcessImage(QueryInfo, float64) int64 { return int64(c) }

func TestOverlapProbability(t *testing.T) {
	p := algoParams()
	if got := overlapProbability(400*time.Millisecond, p); got != 0 {
		t.Errorf("before window: %v", got)
	}
	if got := overlapProbability(900*time.Millisecond, p); got != 1 {
		t.Errorf("after window: %v", got)
	}
	mid := overlapProbability(650*time.Millisecond, p)
	if mid <= 0.4 || mid >= 0.6 {
		t.Errorf("mid-window: %v, want about 0.5", mid)
	}
}

func TestSelectPrefersRedoFarFromWindow(t *testing.T) {
	// Early in execution, far from the window, redo costs ~0.
	in := Input{
		Ct:                 50 * time.Millisecond,
		AvgPipelineTime:    20 * time.Millisecond,
		PipelineStateBytes: 10 << 20,
		EstTotal:           time.Second,
	}
	d := Select(in, algoParams(), constEstimator(50<<20))
	if d.Strategy != StrategyRedo {
		t.Errorf("strategy = %v (redo=%v ppl=%v proc=%v)", d.Strategy, d.CostRedo, d.CostPipeline, d.CostProcess)
	}
	if d.CostRedo != 0 {
		t.Errorf("redo cost far from window = %v, want 0", d.CostRedo)
	}
	if d.ModelTime <= 0 {
		t.Error("model time must be measured")
	}
}

func TestSelectPrefersPipelineWithTinyState(t *testing.T) {
	// Inside the window with lots of progress: losing C_t is expensive;
	// a tiny pipeline state is nearly free to persist.
	in := Input{
		Ct:                 600 * time.Millisecond,
		AvgPipelineTime:    100 * time.Millisecond,
		PipelineStateBytes: 1 << 10, // 1KB
		EstTotal:           time.Second,
	}
	d := Select(in, algoParams(), constEstimator(500<<20)) // huge process image
	if d.Strategy != StrategyPipeline {
		t.Errorf("strategy = %v (redo=%v ppl=%v proc=%v)", d.Strategy, d.CostRedo, d.CostPipeline, d.CostProcess)
	}
}

func TestSelectPrefersProcessWithSmallImage(t *testing.T) {
	// Huge pipeline state (mid hash join) but small process image.
	in := Input{
		Ct:                 600 * time.Millisecond,
		AvgPipelineTime:    100 * time.Millisecond,
		PipelineStateBytes: 1 << 30, // 1GB: ~10s to persist
		EstTotal:           time.Second,
	}
	d := Select(in, algoParams(), constEstimator(1<<20))
	if d.Strategy != StrategyProcess {
		t.Errorf("strategy = %v (redo=%v ppl=%v proc=%v)", d.Strategy, d.CostRedo, d.CostPipeline, d.CostProcess)
	}
	if d.ProcessSuspendAt < in.Ct {
		t.Errorf("process suspend at %v before Ct %v", d.ProcessSuspendAt, in.Ct)
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyRedo.String() != "redo" || StrategyPipeline.String() != "pipeline" || StrategyProcess.String() != "process" {
		t.Error("strategy names wrong")
	}
}
