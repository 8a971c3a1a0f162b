package bench

import (
	"fmt"
	"time"

	"github.com/riveterdb/riveter"
)

// Table2 reproduces Table II: core operators and input table counts of the
// highlighted queries, via plan introspection.
func (s *Suite) Table2() ([]*Table, error) {
	sf := s.cfg.SFs[0]
	t := &Table{
		Title:  "Table II: selected queries in TPC-H (plan characteristics)",
		Header: []string{"Query", "Core Operators", "Tables"},
		Notes: []string{
			"operator counts come from this engine's plans; the paper's Table II reflects DuckDB's plans",
		},
	}
	for _, id := range highlightIDs() {
		a, err := s.queryFor(sf, id)
		if err != nil {
			return nil, err
		}
		ops := a.QueryInfo().Ops
		desc := ""
		if ops.Aggregates > 0 {
			desc += fmt.Sprintf("%d groupby ", ops.Aggregates)
		}
		if ops.Joins > 0 {
			desc += fmt.Sprintf("%d join ", ops.Joins)
		}
		if ops.OuterJoins > 0 {
			desc += fmt.Sprintf("%d outer join ", ops.OuterJoins)
		}
		if ops.SemiAnti > 0 {
			desc += fmt.Sprintf("%d semi/anti join ", ops.SemiAnti)
		}
		t.AddRow(a.QueryInfo().Name, desc, fmt.Sprintf("%d tables", ops.Tables))
	}
	return []*Table{t}, nil
}

// sizeSweep suspends every configured query at the fraction with the given
// strategy across all SFs and tabulates persisted bytes.
func (s *Suite) sizeSweep(title string, k riveter.Strategy, frac float64, ids []int) (*Table, error) {
	header := []string{"Query"}
	for _, sf := range s.cfg.SFs {
		header = append(header, sfLabel(sf))
	}
	t := &Table{Title: title, Header: header}
	for _, id := range ids {
		row := []string{fmt.Sprintf("Q%d", id)}
		for _, sf := range s.cfg.SFs {
			a, err := s.queryFor(sf, id)
			if err != nil {
				return nil, err
			}
			rep, err := suspendWithRetry(a, k, frac)
			if err != nil {
				return nil, err
			}
			if rep.Suspended {
				row = append(row, humanBytes(rep.PersistedBytes))
			} else {
				row = append(row, "(done)") // completed before the request: tiny query
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig6 reproduces Fig. 6: process-level persisted image sizes at ~50% of
// execution across scale factors.
func (s *Suite) Fig6() ([]*Table, error) {
	t, err := s.sizeSweep(
		"Fig 6: process-level persisted intermediate data size (suspend at ~50%)",
		riveter.ProcessLevel, 0.5, s.queryIDs())
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"expected shape: sizes grow with SF; lightweight queries (Q2,Q11,Q16,Q22) deviate at the smallest SF",
		"(done) = query finished before the 50% suspension landed (lightweight query)")
	return []*Table{t}, nil
}

// Fig7 reproduces Fig. 7: process-level image sizes at 30/60/90% of
// execution for the highlighted queries at the largest SF.
func (s *Suite) Fig7() ([]*Table, error) {
	sf := s.cfg.SFs[len(s.cfg.SFs)-1]
	t := &Table{
		Title:  fmt.Sprintf("Fig 7: process-level image size vs suspension point (%s)", sfLabel(sf)),
		Header: []string{"Query", "30%", "60%", "90%"},
		Notes:  []string{"expected shape: size increases monotonically with later suspension"},
	}
	for _, id := range highlightIDs() {
		a, err := s.queryFor(sf, id)
		if err != nil {
			return nil, err
		}
		row := []string{a.QueryInfo().Name}
		for _, frac := range []float64{0.3, 0.6, 0.9} {
			rep, err := suspendWithRetry(a, riveter.ProcessLevel, frac)
			if err != nil {
				return nil, err
			}
			if rep.Suspended {
				row = append(row, humanBytes(rep.PersistedBytes))
			} else {
				row = append(row, "(done)")
			}
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// Fig8 reproduces Fig. 8: pipeline-level persisted sizes at ~50%.
func (s *Suite) Fig8() ([]*Table, error) {
	t, err := s.sizeSweep(
		"Fig 8: pipeline-level persisted intermediate data size (suspend at ~50%)",
		riveter.PipelineLevel, 0.5, s.queryIDs())
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"expected shape: join-pipeline suspends scale with SF; aggregation-pipeline suspends stay near-constant",
		"pipeline-level sizes are far below process-level for aggregation-shaped suspends (compare Fig 6)")
	return []*Table{t}, nil
}

// Fig9 reproduces Fig. 9: the lag between requesting a pipeline-level
// suspension (at ~50%) and the suspension actually starting.
func (s *Suite) Fig9() ([]*Table, error) {
	header := []string{"Query"}
	for _, sf := range s.cfg.SFs {
		header = append(header, sfLabel(sf))
	}
	t := &Table{
		Title:  "Fig 9: time lag from suspension request to pipeline-level suspension",
		Header: header,
		Notes:  []string{"expected shape: Q21 (most pipelines) has the smallest lag"},
	}
	for _, id := range highlightIDs() {
		row := []string{fmt.Sprintf("Q%d", id)}
		for _, sf := range s.cfg.SFs {
			a, err := s.queryFor(sf, id)
			if err != nil {
				return nil, err
			}
			// Average the lag over runs.
			var total time.Duration
			var n int
			for r := 0; r < s.cfg.Runs; r++ {
				rep, err := suspendWithRetry(a, riveter.PipelineLevel, 0.5)
				if err != nil {
					return nil, err
				}
				if rep.Suspended {
					total += rep.SuspendLag
					n++
				}
			}
			if n == 0 {
				row = append(row, "(done)")
			} else {
				row = append(row, humanDur(total/time.Duration(n)))
			}
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// windows are the four termination windows of §IV-B.
var windows = []struct {
	Label      string
	Start, End float64
}{
	{"0-25%", 0.0, 0.25},
	{"25-50%", 0.25, 0.50},
	{"50-75%", 0.50, 0.75},
	{"75-100%", 0.75, 1.00},
}

// Fig10 reproduces Fig. 10: suspension+resumption overhead box statistics
// of the three forced strategies under certain termination (P=100%).
func (s *Suite) Fig10() ([]*Table, error) {
	sf := s.cfg.SFs[len(s.cfg.SFs)-1]
	t := &Table{
		Title:  fmt.Sprintf("Fig 10: overhead of forced strategies, P=100%%, %s (box stats across queries, seconds)", sfLabel(sf)),
		Header: []string{"Window", "Strategy", "min", "q1", "median", "q3", "max"},
		Notes: []string{
			"expected: redo grows with window; process grows, jumps at 75-100%; pipeline rises then falls after 50-75%",
		},
	}
	for _, w := range windows {
		sc := riveter.Scenario{Probability: 1, WindowStartFrac: w.Start, WindowEndFrac: w.End}
		for _, k := range []riveter.Strategy{riveter.Redo, riveter.PipelineLevel, riveter.ProcessLevel} {
			var overheads []float64
			for _, id := range s.queryIDs() {
				a, err := s.queryFor(sf, id)
				if err != nil {
					return nil, err
				}
				var sum float64
				for r := 0; r < s.cfg.Runs; r++ {
					ev := s.sample(sf, a, sc)
					rep, err := a.RunForced(sc, ev, k)
					if err != nil {
						return nil, err
					}
					sum += rep.Overhead().Seconds()
				}
				overheads = append(overheads, sum/float64(s.cfg.Runs))
			}
			b := boxStats(overheads)
			t.AddRow(w.Label, k.String(),
				fmt.Sprintf("%.3f", b[0]), fmt.Sprintf("%.3f", b[1]), fmt.Sprintf("%.3f", b[2]),
				fmt.Sprintf("%.3f", b[3]), fmt.Sprintf("%.3f", b[4]))
		}
	}
	return []*Table{t}, nil
}

// Fig11 reproduces Fig. 11: the rate at which the adaptive selection picks
// a strategy that completes at least as fast as the best forced strategy.
func (s *Suite) Fig11() ([]*Table, error) {
	sf := s.cfg.SFs[len(s.cfg.SFs)-1]
	reg, err := s.regressionFor(sf)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Fig 11: successful strategy selection rate, P=100%%, %s", sfLabel(sf)),
		Header: []string{"Window", "Successes", "Trials", "Rate"},
		Notes: []string{
			"success = the strategy Riveter selects is the one whose forced run completes fastest",
			"on the same termination draw (within 10% + 20ms timing-noise tolerance)",
		},
	}
	for _, w := range windows {
		sc := riveter.Scenario{Probability: 1, WindowStartFrac: w.Start, WindowEndFrac: w.End}
		successes, trials := 0, 0
		for _, id := range s.queryIDs() {
			a, err := s.queryFor(sf, id)
			if err != nil {
				return nil, err
			}
			for r := 0; r < s.cfg.Runs; r++ {
				ev := s.sample(sf, a, sc)
				forced := map[riveter.Strategy]time.Duration{}
				best := time.Duration(1 << 62)
				for _, k := range []riveter.Strategy{riveter.Redo, riveter.PipelineLevel, riveter.ProcessLevel} {
					rep, err := a.RunForced(sc, ev, k)
					if err != nil {
						return nil, err
					}
					forced[k] = rep.TotalTime
					if rep.TotalTime < best {
						best = rep.TotalTime
					}
				}
				a.Estimator = reg
				arep, err := a.RunAdaptive(sc, ev)
				if err != nil {
					return nil, err
				}
				s.logDecision(a.QueryInfo().Name, arep)
				trials++
				// The paper's criterion: the query "under the strategy
				// chosen by Riveter is completed in the shortest time".
				slack := time.Duration(float64(best)*0.10) + 20*time.Millisecond
				if forced[arep.Strategy] <= best+slack || arep.TotalTime <= best+slack {
					successes++
				}
			}
		}
		t.AddRow(w.Label, fmt.Sprintf("%d", successes), fmt.Sprintf("%d", trials),
			fmt.Sprintf("%.0f%%", 100*float64(successes)/float64(trials)))
	}
	return []*Table{t}, nil
}
