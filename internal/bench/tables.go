package bench

import (
	"fmt"
	"time"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/costmodel"
)

// table3Scenarios are the paper's Table III configurations.
var table3Scenarios = []struct {
	QueryID    int
	Prob       float64
	Start, End float64
}{
	{1, 0.30, 0.75, 1.00},
	{3, 0.50, 0.00, 0.25},
	{17, 0.70, 0.50, 0.75},
	{21, 0.90, 0.25, 0.50},
}

// Table3 reproduces Table III: the adaptive controller's selected strategy
// and execution time with suspension for the paper's four scenarios.
func (s *Suite) Table3() ([]*Table, error) {
	sf := s.cfg.SFs[len(s.cfg.SFs)-1]
	reg, err := s.regressionFor(sf)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Table III: adaptive strategy selection scenarios (%s)", sfLabel(sf)),
		Header: []string{"Query", "Configuration", "Selected Strategy",
			"Execution Time", "Execution Time with Suspension", "Terminations"},
	}
	for _, row := range table3Scenarios {
		a, err := s.queryFor(sf, row.QueryID)
		if err != nil {
			return nil, err
		}
		a.Estimator = reg
		sc := riveter.Scenario{Probability: row.Prob, WindowStartFrac: row.Start, WindowEndFrac: row.End}
		var total time.Duration
		counts := map[riveter.Strategy]int{}
		terms := 0
		for r := 0; r < s.cfg.Runs; r++ {
			ev := s.sample(sf, a, sc)
			rep, err := a.RunAdaptive(sc, ev)
			if err != nil {
				return nil, err
			}
			total += rep.TotalTime
			counts[rep.Strategy]++
			if rep.Terminated {
				terms++
			}
		}
		selected, best := riveter.Redo, 0
		for k, n := range counts {
			if n > best {
				selected, best = k, n
			}
		}
		t.AddRow(a.QueryInfo().Name,
			fmt.Sprintf("P=%.0f%%, window %.0f-%.0f%%", row.Prob*100, row.Start*100, row.End*100),
			selected.String(),
			humanDur(a.NormalTime()),
			humanDur(total/time.Duration(s.cfg.Runs)),
			fmt.Sprintf("%d/%d", terms, s.cfg.Runs))
	}
	return []*Table{t}, nil
}

// Table4 reproduces Table IV: regression-based vs optimizer-based
// process-image size estimates against the measured ground truth at ~50%.
func (s *Suite) Table4() ([]*Table, error) {
	if len(s.cfg.SFs) < 2 {
		return nil, fmt.Errorf("table4 needs at least two scale factors")
	}
	sfs := s.cfg.SFs[len(s.cfg.SFs)-2:]
	t := &Table{
		Title:  "Table IV: process-image size estimation at ~50% suspension",
		Header: []string{"Query", "Dataset", "Regression-based", "Optimizer-based", "Ground truth"},
		Notes: []string{
			"expected: regression estimates land near ground truth; optimizer-based estimates overshoot join queries by orders of magnitude",
		},
	}
	for _, id := range highlightIDs() {
		for _, sf := range sfs {
			reg, err := s.regressionFor(sf)
			if err != nil {
				return nil, err
			}
			a, err := s.queryFor(sf, id)
			if err != nil {
				return nil, err
			}
			rep, err := suspendWithRetry(a, riveter.ProcessLevel, 0.5)
			if err != nil {
				return nil, err
			}
			truth := "(done)"
			if rep.Suspended {
				truth = humanBytes(rep.PersistedBytes)
			}
			regEst := reg.EstimateProcessImage(a.QueryInfo(), 0.5)
			optEst := costmodel.OptimizerEstimator{}.EstimateProcessImage(a.QueryInfo(), 0.5)
			t.AddRow(a.QueryInfo().Name, sfLabel(sf), humanBytes(regEst), humanBytes(optEst), truth)
		}
	}
	return []*Table{t}, nil
}

// Table5 reproduces Table V: the cost model's running time when triggered
// for strategy selection, against the query's overall execution time.
func (s *Suite) Table5() ([]*Table, error) {
	sf := s.cfg.SFs[len(s.cfg.SFs)-1]
	reg, err := s.regressionFor(sf)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Table V: cost model running time (%s)", sfLabel(sf)),
		Header: []string{"Query", "Running Time of Cost Model", "Overall Execution Time (no suspension)"},
		Notes: []string{
			"the model time includes measuring the pipeline checkpoint size, which dominates for queries with large intermediate state (the paper's Q17 effect)",
		},
	}
	for _, id := range highlightIDs() {
		a, err := s.queryFor(sf, id)
		if err != nil {
			return nil, err
		}
		a.Estimator = reg
		sc := riveter.Scenario{Probability: 1, WindowStartFrac: 0.5, WindowEndFrac: 0.75}
		var maxSel time.Duration
		for r := 0; r < s.cfg.Runs; r++ {
			rep, err := a.RunAdaptive(sc, riveter.Event{})
			if err != nil {
				return nil, err
			}
			if rep.SelectionTime > maxSel {
				maxSel = rep.SelectionTime
			}
		}
		t.AddRow(a.QueryInfo().Name, humanDur(maxSel), humanDur(a.NormalTime()))
	}
	return []*Table{t}, nil
}

// Fig12 reproduces Fig. 12: Q17's strategy selection flips to the
// sub-optimal pipeline-level strategy when the cost model uses the
// optimizer-based estimator (whose overestimates make the process-level
// image look enormous), causing terminations before suspension completes.
func (s *Suite) Fig12() ([]*Table, error) {
	sf := s.cfg.SFs[len(s.cfg.SFs)-1]
	reg, err := s.regressionFor(sf)
	if err != nil {
		return nil, err
	}
	a, err := s.queryFor(sf, 17)
	if err != nil {
		return nil, err
	}
	sc := riveter.Scenario{Probability: 0.7, WindowStartFrac: 0.5, WindowEndFrac: 0.75}
	t := &Table{
		Title:  fmt.Sprintf("Fig 12: Q17 strategy selection by estimator (P=70%%, window 50-75%%, %s)", sfLabel(sf)),
		Header: []string{"Estimator", "Run", "Selected Strategy", "Suspended", "Terminated", "Total Time"},
		Notes: []string{
			"expected: optimizer-based estimation inflates the process image and pushes the choice away from process-level; the pipeline-level lag overlaps the window, so some runs terminate before suspension completes",
		},
	}
	for _, mode := range []struct {
		name string
		est  costmodel.SizeEstimator
	}{
		{"regression", reg},
		{"optimizer", costmodel.OptimizerEstimator{}},
	} {
		a.Estimator = mode.est
		for r := 0; r < s.cfg.Runs; r++ {
			ev := s.sample(sf, a, sc)
			rep, err := a.RunAdaptive(sc, ev)
			if err != nil {
				return nil, err
			}
			t.AddRow(mode.name, fmt.Sprintf("%d", r+1), rep.Strategy.String(),
				fmt.Sprintf("%v", rep.Suspended), fmt.Sprintf("%v", rep.Terminated),
				humanDur(rep.TotalTime))
		}
	}
	return []*Table{t}, nil
}
