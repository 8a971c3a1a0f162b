package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

// dagQuery builds a plan whose physical form has several independent
// pipelines: three filtered aggregations over emp, joined on dept, and
// sorted. The three branch aggregations share no dependencies, so the DAG
// scheduler runs them concurrently.
func dagQuery(cat *catalog.Catalog) plan.Node {
	b := plan.NewBuilder(cat)
	part := func(lo, hi int64, prefix string) *plan.Rel {
		e := b.Scan("emp", "id", "dept", "salary")
		return e.Filter(expr.And(
			expr.Ge(e.Col("id"), expr.Int(lo)),
			expr.Lt(e.Col("id"), expr.Int(hi)),
		)).Agg([]string{"dept"},
			plan.Sum(e.Col("salary"), "total"),
			plan.CountStar("n")).Rename(prefix)
	}
	return part(0, 4000, "a.").
		Join(part(2000, 8000, "b."), plan.InnerJoin, []string{"a.dept"}, []string{"b.dept"}).
		Join(part(5000, 10000, "c."), plan.InnerJoin, []string{"a.dept"}, []string{"c.dept"}).
		Sort(plan.Asc("a.dept")).Node()
}

// runWith runs a plan with explicit scheduling options.
func runWith(t *testing.T, cat *catalog.Catalog, node plan.Node, opts Options) *ResultSet {
	t.Helper()
	pp := mustCompile(t, node, cat)
	ex := NewExecutor(pp, opts)
	res, err := ex.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDAGMatchesSerialSchedule pins the scheduler equivalence property:
// the DAG schedule (MaxConcurrentPipelines=0) produces the same result as
// the compile-order serial schedule (MaxConcurrentPipelines=1) for every
// worker count.
func TestDAGMatchesSerialSchedule(t *testing.T) {
	cat := testDB(t)
	for _, node := range []plan.Node{complexQuery(cat), dagQuery(cat)} {
		for _, workers := range []int{1, 2, 4, 7} {
			serial := runWith(t, cat, node, Options{Workers: workers, MaxConcurrentPipelines: 1}).SortedKey()
			dag := runWith(t, cat, node, Options{Workers: workers, MaxConcurrentPipelines: 0}).SortedKey()
			if dag != serial {
				t.Errorf("workers=%d: DAG result differs from serial schedule", workers)
			}
		}
	}
}

// TestMaxConcurrentPipelinesCap verifies the cap is honored while the query
// still completes correctly.
func TestMaxConcurrentPipelinesCap(t *testing.T) {
	cat := testDB(t)
	node := dagQuery(cat)
	ref := runWith(t, cat, node, Options{Workers: 1, MaxConcurrentPipelines: 1}).SortedKey()
	for _, cap := range []int{2, 3} {
		got := runWith(t, cat, node, Options{Workers: 4, MaxConcurrentPipelines: cap}).SortedKey()
		if got != ref {
			t.Errorf("cap=%d: result differs", cap)
		}
	}
}

// TestProcessSuspendCapturesMultipleInFlight drives a process-level barrier
// into a DAG with several concurrently running pipelines and checks that the
// capture holds the whole in-flight set, that the set round-trips through
// SaveState/LoadState, and that the resumed run completes to the reference
// result.
func TestProcessSuspendCapturesMultipleInFlight(t *testing.T) {
	cat := testDB(t)
	node := dagQuery(cat)
	ref := runWith(t, cat, node, Options{Workers: 4}).SortedKey()

	// The mark at one byte is crossed by the first morsel a worker
	// finishes, and every worker finds the request armed at its next
	// morsel boundary, so none claims more than one morsel: each branch,
	// five morsels under at most two workers, keeps at least three
	// unclaimed when the barrier lands.
	pp := mustCompile(t, node, cat)
	ex := NewExecutor(pp, Options{Workers: 4})
	ex.SuspendWhen(KindProcess, 1)
	_, err := ex.Run(context.Background())
	if !errors.Is(err, ErrSuspended) {
		t.Fatalf("err = %v", err)
	}
	info := ex.Suspended()
	if info.Kind != KindProcess {
		t.Fatalf("kind = %v", info.Kind)
	}
	// The three branch aggregations are independent and launch together; an
	// immediate barrier must catch more than one of them mid-flight.
	if len(info.InFlight) < 2 {
		t.Fatalf("in-flight set = %+v, want >= 2 pipelines", info.InFlight)
	}
	if !sort.SliceIsSorted(info.InFlight, func(i, j int) bool {
		return info.InFlight[i].Pipeline < info.InFlight[j].Pipeline
	}) {
		t.Errorf("in-flight set not ascending: %+v", info.InFlight)
	}
	if info.Pipeline != info.InFlight[0].Pipeline || info.Cursor != info.InFlight[0].Cursor {
		t.Errorf("summary fields %d/%d do not match first in-flight %+v",
			info.Pipeline, info.Cursor, info.InFlight[0])
	}
	for _, f := range info.InFlight {
		if f.Workers < 1 {
			t.Errorf("in-flight pipeline %d captured no worker locals", f.Pipeline)
		}
		if c := ex.source(pp.Pipelines[f.Pipeline]).MorselCount(); f.Cursor > c {
			t.Errorf("in-flight pipeline %d cursor %d exceeds %d morsels", f.Pipeline, f.Cursor, c)
		}
	}

	// Progress and cost-model inputs over the multi-pipeline capture.
	prog := ex.CurrentProgress()
	if len(prog.InFlight) != len(info.InFlight) {
		t.Errorf("progress in-flight %d, suspend info %d", len(prog.InFlight), len(info.InFlight))
	}
	if eta := prog.NextBreakerEta(); eta < 0 {
		t.Errorf("NextBreakerEta = %v", eta)
	}
	if d := prog.PipelineSuspendDiscard(); d < 0 {
		t.Errorf("PipelineSuspendDiscard = %v", d)
	}

	state := saveState(t, ex)
	pp2 := mustCompile(t, node, cat)
	ex2 := NewExecutor(pp2, Options{Workers: 4})
	loadState(t, ex2, state)
	res, err := ex2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != ref {
		t.Error("result after multi-pipeline process suspend/resume differs")
	}
}

// TestRepeatedMidDAGSuspensions chains several process-level barriers at
// increasing progress thresholds through the DAG, resuming each time.
func TestRepeatedMidDAGSuspensions(t *testing.T) {
	cat := testDB(t)
	node := dagQuery(cat)
	ref := runWith(t, cat, node, Options{Workers: 4}).SortedKey()

	var state []byte
	for round := 0; round < 5; round++ {
		pp := mustCompile(t, node, cat)
		ex := NewExecutor(pp, Options{Workers: 4})
		ex.SuspendWhen(KindProcess, int64(round+1)*300_000)
		if state != nil {
			loadState(t, ex, state)
		}
		res, err := ex.Run(context.Background())
		if err == nil {
			if res.SortedKey() != ref {
				t.Fatalf("round %d: completed result differs", round)
			}
			return
		}
		if !errors.Is(err, ErrSuspended) {
			t.Fatalf("round %d: err = %v", round, err)
		}
		state = saveState(t, ex)
	}
	pp := mustCompile(t, node, cat)
	ex := NewExecutor(pp, Options{Workers: 4})
	loadState(t, ex, state)
	res, err := ex.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != ref {
		t.Error("result after repeated mid-DAG suspensions differs")
	}
}

// TestPipelineSuspendMidDAGDiscardsSiblings: a pipeline-level suspension in
// a DAG with concurrent pipelines quiesces the siblings, discards their
// partial progress, and still resumes to the correct result — under a
// different worker count, which is the point of the pipeline strategy.
func TestPipelineSuspendMidDAGDiscardsSiblings(t *testing.T) {
	cat := testDB(t)
	node := dagQuery(cat)
	ref := runWith(t, cat, node, Options{Workers: 4}).SortedKey()

	pp := mustCompile(t, node, cat)
	fired := false
	ex := NewExecutor(pp, Options{
		Workers: 4,
		OnBreaker: func(ev *BreakerEvent) BreakerAction {
			if !fired {
				fired = true
				return ActionSuspend
			}
			return ActionContinue
		},
	})
	_, err := ex.Run(context.Background())
	if !errors.Is(err, ErrSuspended) {
		t.Fatalf("err = %v", err)
	}
	info := ex.Suspended()
	if info.Kind != KindPipeline {
		t.Fatalf("kind = %v", info.Kind)
	}
	if len(info.InFlight) != 0 {
		t.Errorf("pipeline-level capture must not carry in-flight state, got %+v", info.InFlight)
	}
	state := saveState(t, ex)
	pp2 := mustCompile(t, node, cat)
	ex2 := NewExecutor(pp2, Options{Workers: 2}) // different worker count
	loadState(t, ex2, state)
	res, err := ex2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != ref {
		t.Error("result after mid-DAG pipeline suspend/resume differs")
	}
}

// TestStateFormatV1Rejected: versions 1 (pre-DAG), 2 (the aggregate state
// before v3), 3 (the join build before v4), 4 (breakers of unpruned
// plans) and 5 (aggregates of every group, before predicate transfer) of
// the state format are no longer loadable. Their bytes
// must yield a clean "unsupported state version" error — no panic — and
// leave the executor untouched, so it still runs from scratch to the right
// result.
func TestStateFormatV1Rejected(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	ref := runPlan(t, cat, node, 2).SortedKey()

	for _, version := range []uint64{1, 2, 3, 4, 5} {
		var buf bytes.Buffer
		enc := vector.NewEncoder(&buf)
		enc.String(stateMagic)
		enc.Uvarint(version)
		// What followed in each: kind, fingerprint, workers, elapsed ...
		enc.Uvarint(uint64(KindPipeline))
		enc.Uvarint(mustCompile(t, node, cat).Fingerprint)
		enc.Uvarint(2)
		enc.Varint(12345)
		if err := enc.Err(); err != nil {
			t.Fatal(err)
		}

		ex := NewExecutor(mustCompile(t, node, cat), Options{Workers: 2})
		err := ex.LoadState(vector.NewDecoder(bytes.NewReader(buf.Bytes())))
		if want := fmt.Sprintf("unsupported state version %d", version); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("LoadState(v%d) = %v, want an unsupported-version error", version, err)
		}
		res, err := ex.Run(context.Background())
		if err != nil {
			t.Fatalf("executor unusable after a rejected v%d load: %v", version, err)
		}
		if res.SortedKey() != ref {
			t.Errorf("a rejected v%d load left partial state behind", version)
		}
	}
}
