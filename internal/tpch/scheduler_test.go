package tpch

import (
	"context"
	"testing"

	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/plan"
)

// TestQueriesDAGMatchesSerialSchedule is the scheduler-equivalence property
// over the whole TPC-H suite: for every query, the DAG schedule (all ready
// pipelines concurrent) must produce the same result as the compile-order
// serial schedule (MaxConcurrentPipelines=1), which reproduces the pre-DAG
// executor's behavior exactly.
func TestQueriesDAGMatchesSerialSchedule(t *testing.T) {
	cat := queryCatalog(t)
	for _, q := range All() {
		node := q.Build(plan.NewBuilder(cat), testSF)
		run := func(maxConc int) string {
			pp, err := engine.CompileWith(node, cat, engine.CompileOptions{})
			if err != nil {
				t.Fatalf("%s: compile: %v", q.Name, err)
			}
			ex := engine.NewExecutor(pp, engine.Options{
				Workers:                4,
				MaxConcurrentPipelines: maxConc,
			})
			res, err := ex.Run(context.Background())
			if err != nil {
				t.Fatalf("%s (maxConc=%d): %v", q.Name, maxConc, err)
			}
			return res.SortedKey()
		}
		serial := run(1)
		if dag := run(0); dag != serial {
			t.Errorf("%s: DAG schedule result differs from serial schedule", q.Name)
		}
		if capped := run(2); capped != serial {
			t.Errorf("%s: capped (2-pipeline) schedule result differs from serial", q.Name)
		}
	}
}
