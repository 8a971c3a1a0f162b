package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

// TestMultipleSuspensionsPipelineLevel exercises the paper's §VI extension:
// a query suspended and resumed several times within one execution, each
// suspension at a later breaker.
func TestMultipleSuspensionsPipelineLevel(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	ref := runPlan(t, cat, node, 2).SortedKey()

	pp := mustCompile(t, node, cat)
	numBreakers := len(pp.Pipelines) - 1

	// Chain: run -> suspend at breaker k -> save -> new executor -> load ->
	// continue, for every breaker in sequence.
	var state []byte
	for k := 0; k < numBreakers; k++ {
		ppk := mustCompile(t, node, cat)
		target := k
		ex := NewExecutor(ppk, Options{
			Workers: 2,
			OnBreaker: func(ev *BreakerEvent) BreakerAction {
				if ev.PipelineIdx == target {
					return ActionSuspend
				}
				return ActionContinue
			},
		})
		if state != nil {
			loadState(t, ex, state)
		}
		_, err := ex.Run(context.Background())
		if !errors.Is(err, ErrSuspended) {
			t.Fatalf("suspension %d: err = %v", k, err)
		}
		state = saveState(t, ex)
	}

	// Final resume runs to completion.
	ppf := mustCompile(t, node, cat)
	ex := NewExecutor(ppf, Options{Workers: 2})
	loadState(t, ex, state)
	res, err := ex.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != ref {
		t.Error("result after chained suspensions differs from clean run")
	}
}

// TestMultipleSuspensionsProcessLevel alternates process-level suspensions
// with partial progress.
func TestMultipleSuspensionsProcessLevel(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	ref := runPlan(t, cat, node, 2).SortedKey()

	var state []byte
	for round := 0; round < 4; round++ {
		pp := mustCompile(t, node, cat)
		// Suspend after a modest amount of additional progress.
		ex := NewExecutor(pp, Options{Workers: 2})
		ex.SuspendWhen(KindProcess, int64(round+1)*200_000)
		if state != nil {
			loadState(t, ex, state)
		}
		res, err := ex.Run(context.Background())
		if err == nil {
			// Completed: compare and stop.
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
	ex := NewExecutor(pp, Options{Workers: 2})
	loadState(t, ex, state)
	res, err := ex.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != ref {
		t.Error("result after repeated process suspensions differs")
	}
}

// TestQuiesceAndContinue exercises ClearSuspension: a process-level barrier
// used as a decision point, after which execution continues in place.
func TestQuiesceAndContinue(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	ref := runPlan(t, cat, node, 2).SortedKey()

	pp := mustCompile(t, node, cat)
	ex := NewExecutor(pp, Options{Workers: 2})
	ex.RequestSuspend(KindProcess)
	_, err := ex.Run(context.Background())
	if !errors.Is(err, ErrSuspended) {
		t.Fatalf("err = %v", err)
	}
	prog := ex.CurrentProgress()
	if prog.NumPipelines != len(pp.Pipelines) {
		t.Errorf("progress = %+v", prog)
	}
	if n := ex.EstimateNextBreakerCheckpointBytes(); n < 0 {
		t.Errorf("next-breaker estimate = %d", n)
	}

	ex.ClearSuspension()
	res, err := ex.Run(context.Background())
	if err != nil {
		t.Fatalf("continue after quiesce: %v", err)
	}
	if res.SortedKey() != ref {
		t.Error("result after quiesce-and-continue differs")
	}
}

// TestQuiesceThenPipelineSuspend is the controller's pipeline path: quiesce,
// decide, continue with a pipeline-level suspension armed.
func TestQuiesceThenPipelineSuspend(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	ref := runPlan(t, cat, node, 2).SortedKey()

	pp := mustCompile(t, node, cat)
	ex := NewExecutor(pp, Options{Workers: 2})
	ex.RequestSuspend(KindProcess)
	if _, err := ex.Run(context.Background()); !errors.Is(err, ErrSuspended) {
		t.Fatal(err)
	}
	ex.ClearSuspension()
	ex.RequestSuspend(KindPipeline)
	_, err := ex.Run(context.Background())
	if !errors.Is(err, ErrSuspended) {
		t.Fatalf("pipeline suspension after quiesce: %v", err)
	}
	if info := ex.Suspended(); info.Kind != KindPipeline {
		t.Fatalf("kind = %v", info.Kind)
	}
	state := saveState(t, ex)
	pp2 := mustCompile(t, node, cat)
	ex2 := NewExecutor(pp2, Options{Workers: 3})
	loadState(t, ex2, state)
	res, err := ex2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SortedKey() != ref {
		t.Error("result differs after quiesce->pipeline-suspend->resume")
	}
}

// TestWorkerErrorPropagation ensures an operator failure inside a worker
// surfaces as an error, not a hang or partial result.
func TestWorkerErrorPropagation(t *testing.T) {
	cat := testDB(t)
	b := plan.NewBuilder(cat)
	e := b.Scan("emp", "id", "name")
	// Column 0 is BIGINT; a reference bound as VARCHAR type-checks and
	// compiles, and fails the program's bound-type check on the first morsel.
	bad := &plan.Filter{
		Child: e.Node(),
		Cond:  expr.Eq(expr.NamedCol(0, vector.TypeString, ""), expr.Str("e0001")),
	}
	pp := mustCompile(t, bad, cat)
	ex := NewExecutor(pp, Options{Workers: 4})
	if _, err := ex.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "bound type VARCHAR but chunk has BIGINT") {
		t.Fatalf("run = %v, want the worker's bound-type error", err)
	}
}

// TestAutoSuspendFiresOnce verifies the mark's one-shot semantics across
// in-place resumes: a mark fires once, and re-arming after ClearSuspension
// fires it once more.
func TestAutoSuspendFiresOnce(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	ref := runPlan(t, cat, node, 2).SortedKey()
	ex := NewExecutor(mustCompile(t, node, cat), Options{Workers: 2})
	ex.SuspendWhen(KindProcess, 1)
	for round := 0; round < 2; round++ {
		if _, err := ex.Run(context.Background()); !errors.Is(err, ErrSuspended) {
			t.Fatalf("round %d: Run = %v, want a suspension", round, err)
		}
		if ex.MarkFiredAt().IsZero() {
			t.Fatalf("round %d: mark fire time missing", round)
		}
		ex.ClearSuspension()
		if round == 0 {
			ex.SuspendWhen(KindProcess, 1)
		}
	}
	// The re-armed mark is spent: the query continues to completion.
	res, err := ex.Run(context.Background())
	if err != nil {
		t.Fatalf("continue: %v", err)
	}
	if res.SortedKey() != ref {
		t.Error("result after two mark suspensions differs from a clean run")
	}
}

// TestSuspendWhenPassedMarkFiresAtNextBoundary: a mark armed below the
// bytes already processed fires at the next morsel boundary, before any
// worker claims another morsel.
func TestSuspendWhenPassedMarkFiresAtNextBoundary(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	clean := NewExecutor(mustCompile(t, node, cat), Options{Workers: 2})
	if _, err := clean.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	total := clean.Accountant().ProcessedBytes()
	ex := NewExecutor(mustCompile(t, node, cat), Options{Workers: 2})
	ex.SuspendWhen(KindProcess, total/2)
	if _, err := ex.Run(context.Background()); !errors.Is(err, ErrSuspended) {
		t.Fatalf("Run = %v, want a suspension at half the bytes", err)
	}
	at := ex.Accountant().ProcessedBytes()
	ex.ClearSuspension()
	ex.SuspendWhen(KindProcess, total/4)
	if _, err := ex.Run(context.Background()); !errors.Is(err, ErrSuspended) {
		t.Fatalf("Run = %v, want the passed mark to suspend at once", err)
	}
	if got := ex.Accountant().ProcessedBytes(); got != at {
		t.Errorf("processed %d bytes past a mark already passed (%d → %d)", got-at, at, got)
	}
	if info := ex.Suspended(); info.Kind != KindProcess {
		t.Errorf("suspension %+v, want process-level", info)
	}
}

// TestSuspendWhenArmedDuringRun arms a mark from another goroutine while
// the executor runs: the first breaker holds the scheduler until the mark,
// already passed, is armed, and the workers of the pipelines still to run
// pick it up at their next morsel boundary.
func TestSuspendWhenArmedDuringRun(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	ref := runPlan(t, cat, node, 2).SortedKey()
	reached, armed := make(chan struct{}), make(chan struct{})
	var once sync.Once
	ex := NewExecutor(mustCompile(t, node, cat), Options{
		Workers: 2,
		OnBreaker: func(*BreakerEvent) BreakerAction {
			once.Do(func() {
				close(reached)
				<-armed
			})
			return ActionContinue
		},
	})
	go func() {
		<-reached
		ex.SuspendWhen(KindProcess, ex.Accountant().ProcessedBytes())
		close(armed)
	}()
	if _, err := ex.Run(context.Background()); !errors.Is(err, ErrSuspended) {
		t.Fatalf("Run = %v, want the mark armed mid-run to suspend", err)
	}
	if ex.MarkFiredAt().IsZero() || ex.Suspended().Kind != KindProcess {
		t.Fatalf("suspension %+v, fired at %v: want a process-level mark", ex.Suspended(), ex.MarkFiredAt())
	}
	ex.ClearSuspension()
	res, err := ex.Run(context.Background())
	if err != nil {
		t.Fatalf("continue: %v", err)
	}
	if res.SortedKey() != ref {
		t.Error("result after a mid-run mark differs from a clean run")
	}
}
