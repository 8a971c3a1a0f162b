package costmodel

import (
	"os"
	"testing"
	"time"

	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/obs"
)

func TestLineageProfileSealLatency(t *testing.T) {
	p := LineageProfile{AppendLatency: time.Millisecond, LogBytesPerSec: 100 << 20}
	if got := p.SealLatency(0); got != time.Millisecond {
		t.Errorf("zero-tail seal = %v, want the append latency floor", got)
	}
	if got := p.SealLatency(100 << 20); got != time.Millisecond+time.Second {
		t.Errorf("seal(100MB) = %v", got)
	}
	if p.SealLatency(1) > p.SealLatency(1<<30) {
		t.Error("seal latency must be monotone in tail size")
	}
	var zero LineageProfile
	if zero.SealLatency(0) <= 0 {
		t.Error("zero profile must still price a seal above zero")
	}
}

// TestCalibrateIO: the checkpoint directory's probe yields plausible write
// and read bandwidths and the constant fixed latency.
func TestCalibrateIO(t *testing.T) {
	io, _, err := CalibrateDir(faultfs.OS, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A real device moves at least 1MB/s and at most 100GB/s.
	for name, bps := range map[string]float64{"write": io.WriteBytesPerSec, "read": io.ReadBytesPerSec} {
		if bps < 1<<20 || bps > 100<<30 {
			t.Errorf("%s bandwidth implausible: %v", name, bps)
		}
	}
	if io.FixedLatency != 2*time.Millisecond {
		t.Errorf("fixed latency = %v, want the 2ms constant", io.FixedLatency)
	}
}

// TestCalibrateLineage: the same single probe file prices the lineage log —
// a measured append latency and the device's write bandwidth — and leaves
// nothing behind.
func TestCalibrateLineage(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(nil)
	io, lin, err := CalibrateDir(inj, dir)
	if err != nil {
		t.Fatal(err)
	}
	if lin.AppendLatency <= 0 || lin.LogBytesPerSec != io.WriteBytesPerSec {
		t.Errorf("lineage profile %+v, want a measured append latency and the write bandwidth", lin)
	}
	if n := inj.OpCount(faultfs.OpCreate); n != 1 {
		t.Errorf("probe created %d files, want 1", n)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("probe left %v behind", left)
	}
}

// TestCalibrateDirFailureFallsBack: a device that cannot even host the
// probe yields the conservative defaults and an error, never a zero profile.
func TestCalibrateDirFailureFallsBack(t *testing.T) {
	inj := faultfs.New(nil).FailNth(faultfs.OpCreate, 1, nil)
	io, lin, err := CalibrateDir(inj, t.TempDir())
	if err == nil {
		t.Fatal("want probe error")
	}
	if io != DefaultIOProfile() || lin != DefaultLineageProfile() {
		t.Errorf("failed calibration must return defaults, got %+v and %+v", io, lin)
	}
}

// TestSelectPicksLineage: with a lineage log attached, a tiny unsealed tail
// and a bounded replay window, Algorithm 1 prefers lineage over the
// checkpoint strategies whose cost scales with the full state size.
func TestSelectPicksLineage(t *testing.T) {
	p := Params{
		Probability: 1,
		WindowStart: 0,
		WindowEnd:   time.Second,
		IO:          IOProfile{WriteBytesPerSec: 100 << 20, ReadBytesPerSec: 100 << 20, FixedLatency: time.Millisecond},
		Lineage:     LineageProfile{AppendLatency: 100 * time.Microsecond, LogBytesPerSec: 200 << 20},
	}
	in := Input{
		Ct:                 30 * time.Second, // a lot of progress to lose
		AvgPipelineTime:    time.Second,
		PipelineStateBytes: 2 << 30, // checkpoints must move 2GB
		EstTotal:           60 * time.Second,
		LineageEnabled:     true,
		LineageTailBytes:   4 << 10, // the log already holds the state
		LineageStateBytes:  1 << 20,
		LineageReplay:      50 * time.Millisecond,
	}
	d := Select(in, p, nil)
	if d.Strategy != StrategyLineage {
		t.Fatalf("strategy = %v (redo=%v ppl=%v proc=%v lineage=%v)",
			d.Strategy, d.CostRedo, d.CostPipeline, d.CostProcess, d.CostLineage)
	}
	if d.CostLineage >= d.CostPipeline {
		t.Errorf("lineage cost %v not below pipeline cost %v", d.CostLineage, d.CostPipeline)
	}
}

// TestSelectLineageDisabled: without a log attached the lineage strategy is
// priced out entirely — Algorithm 1 must never select a strategy the
// execution cannot perform.
func TestSelectLineageDisabled(t *testing.T) {
	p := Params{Probability: 1, WindowEnd: time.Second, IO: DefaultIOProfile()}
	in := Input{
		Ct:                 30 * time.Second,
		AvgPipelineTime:    time.Second,
		PipelineStateBytes: 1 << 20,
	}
	d := Select(in, p, nil)
	if d.Strategy == StrategyLineage {
		t.Fatal("lineage selected without a log attached")
	}
	if d.CostLineage != infCost {
		t.Errorf("disabled lineage cost = %v, want infinity", d.CostLineage)
	}
}

// TestSelectLineageLosesToRedo: with the termination window far away and
// almost no progress to protect, doing nothing stays the cheapest.
func TestSelectLineageLosesToRedo(t *testing.T) {
	p := Params{
		Probability: 0.01,
		WindowStart: time.Hour,
		WindowEnd:   2 * time.Hour,
		IO:          DefaultIOProfile(),
		Lineage:     DefaultLineageProfile(),
	}
	in := Input{
		Ct:              10 * time.Millisecond,
		AvgPipelineTime: time.Millisecond,
		LineageEnabled:  true,
	}
	d := Select(in, p, nil)
	if d.Strategy != StrategyRedo {
		t.Fatalf("strategy = %v, want redo when no termination looms", d.Strategy)
	}
}

func TestLineageProfilePublish(t *testing.T) {
	r := obs.NewRegistry()
	LineageProfile{AppendLatency: 123, LogBytesPerSec: 456}.Publish(r)
	g := r.Snapshot().Gauges
	if g[obs.MetricLineageAppendLatency] != 123 || g[obs.MetricLineageLogBps] != 456 {
		t.Errorf("published gauges = %+v", g)
	}
}
