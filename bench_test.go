package riveter_test

import (
	"io"
	"os"
	"sync"
	"testing"

	"github.com/riveterdb/riveter/internal/bench"
)

// The benchmarks below regenerate the paper's evaluation artifacts — one
// benchmark per table and figure of §IV (see DESIGN.md's experiment index).
// They run at a reduced scale so `go test -bench=.` completes in minutes;
// cmd/riveter-bench runs the same experiments at configurable scale and
// prints the full tables.
//
// Reported metric: wall time of regenerating the artifact once.

var (
	suiteOnce sync.Once
	suite     *bench.Suite
	suiteErr  error
)

func benchSuite(b *testing.B) *bench.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		dir, err := os.MkdirTemp("", "riveter-bench-*")
		if err != nil {
			suiteErr = err
			return
		}
		suite, suiteErr = bench.NewSuite(bench.Config{
			// 1:5:10 ratio, mirroring the paper's SF-10/50/100.
			SFs:           []float64{0.002, 0.01, 0.02},
			Workers:       4,
			Runs:          2,
			Queries:       []int{1, 3, 6, 12, 17, 21},
			CheckpointDir: dir,
			Seed:          1,
			Out:           io.Discard,
			Quiet:         true,
		})
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

func runExperiment(b *testing.B, id string) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(id); err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
	}
}

// BenchmarkTable2QueryCharacteristics regenerates Table II: core operators
// and table counts of the highlighted queries.
func BenchmarkTable2QueryCharacteristics(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig6ProcessLevelSize regenerates Fig. 6: process-level persisted
// image sizes at ~50% of execution across scale factors.
func BenchmarkFig6ProcessLevelSize(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7ProcessLevelProgression regenerates Fig. 7: process-level
// image sizes at 30/60/90% of execution.
func BenchmarkFig7ProcessLevelProgression(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8PipelineLevelSize regenerates Fig. 8: pipeline-level
// persisted state sizes at ~50% of execution.
func BenchmarkFig8PipelineLevelSize(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9SuspensionLag regenerates Fig. 9: the lag between a
// suspension request and the pipeline-level suspension starting.
func BenchmarkFig9SuspensionLag(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10StrategyOverheads regenerates Fig. 10: forced-strategy
// overhead box statistics under certain termination.
func BenchmarkFig10StrategyOverheads(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11SelectionSuccess regenerates Fig. 11: the adaptive
// selection's success rate against the best forced strategy.
func BenchmarkFig11SelectionSuccess(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkTable3AdaptiveScenarios regenerates Table III: selected strategy
// and execution time with suspension for the paper's four scenarios.
func BenchmarkTable3AdaptiveScenarios(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4EstimatorAccuracy regenerates Table IV: regression-based
// vs optimizer-based process-image estimates against ground truth.
func BenchmarkTable4EstimatorAccuracy(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkTable5CostModelRuntime regenerates Table V: the cost model's
// running time against overall execution time.
func BenchmarkTable5CostModelRuntime(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkFig12OptimizerMisselection regenerates Fig. 12: Q17's strategy
// selection under optimizer-based estimation and the terminations its
// deferred suspension causes.
func BenchmarkFig12OptimizerMisselection(b *testing.B) { runExperiment(b, "fig12") }
