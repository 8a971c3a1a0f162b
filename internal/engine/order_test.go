package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

// orderedKey renders a result row by row, in result order.
func orderedKey(r *ResultSet) string {
	var b strings.Builder
	for i := int64(0); i < r.NumRows(); i++ {
		fmt.Fprintln(&b, r.Row(i))
	}
	return b.String()
}

// TestSortedResultKeepsOrderAcrossWorkers pins ORDER BY's contract under
// parallelism: a 20,000-row sort (ten morsels of sorted output) must reach
// the result in sort order whatever the worker count. Workers claim morsels
// by CAS but their locals are combined in assignment order, so the pipeline
// that scans a sorted buffer must deliver its morsels through one worker —
// also after a process-level suspension captured it mid-scan and a fresh
// executor took it over.
func TestSortedResultKeepsOrderAcrossWorkers(t *testing.T) {
	cat := catalog.New()
	randomTable(t, cat, "t", 20_000, 500, rand.New(rand.NewSource(41)))
	tb := plan.NewBuilder(cat).Scan("t")
	node := tb.Sort(plan.Asc("t_v"), plan.Asc("t_k")).Node()
	want := orderedKey(runPlan(t, cat, node, 1))

	for round := 0; round < 5; round++ {
		if got := orderedKey(runPlan(t, cat, node, 4)); got != want {
			t.Fatalf("round %d: 4-worker sorted result is out of order", round)
		}
	}

	// Suspend inside the result pipeline, after its third morsel. A probe run
	// finds that processed-bytes mark: everything the pipelines before it
	// read, plus the bytes of its first three morsels, read off its source
	// once the sort has finalized.
	probe := mustCompile(t, node, cat)
	last := len(probe.Pipelines) - 1
	if !probe.Pipelines[last].Ordered {
		t.Fatal("the pipeline scanning the sorted buffer is not marked Ordered")
	}
	acct := NewAccountant()
	var mark int64
	_, err := NewExecutor(probe, Options{Workers: 4, Accountant: acct, OnBreaker: func(ev *BreakerEvent) BreakerAction {
		if ev.PipelineIdx == last-1 {
			mark = acct.ProcessedBytes()
			src := ev.ex.source(probe.Pipelines[last])
			chunk := vector.NewChunk(src.OutTypes())
			for idx := int64(0); idx < 3; idx++ {
				if _, err := src.ReadMorsel(idx, chunk); err != nil {
					t.Error(err)
				}
				mark += chunk.MemBytes()
			}
		}
		return ActionContinue
	}}).Run(context.Background())
	if err != nil || mark == 0 {
		t.Fatalf("probe run: err %v, mark %d", err, mark)
	}
	pp := mustCompile(t, node, cat)
	ex := NewExecutor(pp, Options{Workers: 4})
	ex.SuspendWhen(KindProcess, mark)
	if _, err := ex.Run(context.Background()); !errors.Is(err, ErrSuspended) {
		t.Fatalf("Run = %v, want a suspension inside the result pipeline", err)
	}
	info := ex.Suspended()
	if info.Pipeline != last || info.Cursor <= 2 || info.Cursor >= ex.source(pp.Pipelines[last]).MorselCount() {
		t.Fatalf("suspension landed at %+v, want mid-scan of pipeline %d", info, last)
	}
	ex2 := NewExecutor(mustCompile(t, node, cat), Options{Workers: 4})
	loadState(t, ex2, saveState(t, ex))
	res, err := ex2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if orderedKey(res) != want {
		t.Fatal("sorted result resumed from a mid-scan process-level suspension is out of order")
	}
}

// TestOrderedOnlyIntoACollector keeps the one-worker rule to where order is
// observable: sorted rows scanned into an aggregate may use every worker.
func TestOrderedOnlyIntoACollector(t *testing.T) {
	cat := catalog.New()
	randomTable(t, cat, "t", 1000, 50, rand.New(rand.NewSource(7)))
	sorted := plan.NewBuilder(cat).Scan("t").Sort(plan.Asc("t_v"))
	for _, tc := range []struct {
		name string
		node plan.Node
		want bool // of the pipeline that scans the sorted buffer
	}{
		{"result", sorted.Node(), true},
		{"limit", sorted.Filter(expr.Gt(sorted.Col("t_k"), expr.Int(3))).Limit(10).Sort(plan.Asc("t_k")).Node(), true},
		{"aggregate", sorted.Agg([]string{"t_k"}, plan.CountStar("n")).Node(), false},
	} {
		pp := mustCompile(t, tc.node, cat)
		for _, p := range pp.Pipelines {
			if strings.Contains(p.Label, "scan(sorted)") && p.Ordered != tc.want {
				t.Errorf("%s: pipeline %q Ordered = %v, want %v", tc.name, p.Label, p.Ordered, tc.want)
			}
		}
	}
}
