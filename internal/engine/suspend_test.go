package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

// complexQuery builds a plan with several pipelines: join + aggregate + topN.
func complexQuery(cat *catalog.Catalog) plan.Node {
	b := plan.NewBuilder(cat)
	e := b.Scan("emp", "id", "dept", "salary")
	d := b.Scan("dept")
	return e.Join(d, plan.InnerJoin, []string{"dept"}, []string{"did"}).
		Agg([]string{"dname"},
			plan.Sum(expr.NamedCol(2, vector.TypeFloat64, ""), "total"),
			plan.CountStar("n")).
		Sort(plan.Desc("total"), plan.Asc("dname")).
		Limit(5).Node()
}

func mustCompile(t testing.TB, n plan.Node, cat *catalog.Catalog) *PhysicalPlan {
	t.Helper()
	pp, err := CompileWith(n, cat, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

func saveState(t testing.TB, ex *Executor) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := vector.NewEncoder(&buf)
	if err := ex.SaveState(enc); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	return buf.Bytes()
}

func loadState(t testing.TB, ex *Executor, data []byte) {
	t.Helper()
	dec := vector.NewDecoder(bytes.NewReader(data))
	if err := ex.LoadState(dec); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
}

func TestPipelineLevelSuspendResumeAtEveryBreaker(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	ref := runPlan(t, cat, node, 2).SortedKey()

	pp := mustCompile(t, node, cat)
	numBreakers := len(pp.Pipelines) - 1 // no breaker decision after the result pipeline
	for breaker := 0; breaker < numBreakers; breaker++ {
		target := breaker
		pp1 := mustCompile(t, node, cat)
		ex1 := NewExecutor(pp1, Options{
			Workers: 2,
			OnBreaker: func(ev *BreakerEvent) BreakerAction {
				if ev.PipelineIdx == target {
					return ActionSuspend
				}
				return ActionContinue
			},
		})
		_, err := ex1.Run(context.Background())
		if !errors.Is(err, ErrSuspended) {
			t.Fatalf("breaker %d: err = %v, want ErrSuspended", breaker, err)
		}
		info := ex1.Suspended()
		if info == nil || info.Kind != KindPipeline || info.Pipeline != target+1 {
			t.Fatalf("breaker %d: info = %+v", breaker, info)
		}
		state := saveState(t, ex1)

		// Resume with a different worker count: pipeline-level allows it.
		pp2 := mustCompile(t, node, cat)
		ex2 := NewExecutor(pp2, Options{Workers: 4})
		loadState(t, ex2, state)
		res, err := ex2.Run(context.Background())
		if err != nil {
			t.Fatalf("breaker %d resume: %v", breaker, err)
		}
		if got := res.SortedKey(); got != ref {
			t.Errorf("breaker %d: resumed result differs from reference", breaker)
		}
	}
}

func TestProcessLevelSuspendResumeMidPipeline(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	ref := runPlan(t, cat, node, 3).SortedKey()

	// Suspend almost immediately: the first pipeline is mid-flight.
	pp1 := mustCompile(t, node, cat)
	ex1 := NewExecutor(pp1, Options{Workers: 3})
	ex1.RequestSuspend(KindProcess)
	_, err := ex1.Run(context.Background())
	if !errors.Is(err, ErrSuspended) {
		t.Fatalf("err = %v, want ErrSuspended", err)
	}
	info := ex1.Suspended()
	if info.Kind != KindProcess {
		t.Fatalf("info = %+v", info)
	}
	state := saveState(t, ex1)

	pp2 := mustCompile(t, node, cat)
	ex2 := NewExecutor(pp2, Options{Workers: 3})
	loadState(t, ex2, state)
	res, err := ex2.Run(context.Background())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := res.SortedKey(); got != ref {
		t.Error("resumed result differs from reference")
	}
}

func TestProcessLevelSuspendPartway(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	ref := runPlan(t, cat, node, 2).SortedKey()

	// Let some morsels process, then suspend from a concurrent goroutine.
	for trial := 0; trial < 5; trial++ {
		pp1 := mustCompile(t, node, cat)
		ex1 := NewExecutor(pp1, Options{Workers: 2})
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(time.Duration(trial) * 200 * time.Microsecond)
			ex1.RequestSuspend(KindProcess)
		}()
		res, err := ex1.Run(context.Background())
		<-done
		if err == nil {
			// The query can legitimately finish before the request lands.
			if got := res.SortedKey(); got != ref {
				t.Fatalf("trial %d: completed result differs", trial)
			}
			continue
		}
		if !errors.Is(err, ErrSuspended) {
			t.Fatalf("trial %d: err = %v", trial, err)
		}
		state := saveState(t, ex1)
		pp2 := mustCompile(t, node, cat)
		ex2 := NewExecutor(pp2, Options{Workers: 2})
		loadState(t, ex2, state)
		res2, err := ex2.Run(context.Background())
		if err != nil {
			t.Fatalf("trial %d resume: %v", trial, err)
		}
		if got := res2.SortedKey(); got != ref {
			t.Errorf("trial %d: resumed result differs", trial)
		}
	}
}

func TestProcessResumeRequiresSameWorkerCount(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	pp1 := mustCompile(t, node, cat)
	ex1 := NewExecutor(pp1, Options{Workers: 2})
	ex1.RequestSuspend(KindProcess)
	if _, err := ex1.Run(context.Background()); !errors.Is(err, ErrSuspended) {
		t.Fatalf("err = %v", err)
	}
	state := saveState(t, ex1)

	pp2 := mustCompile(t, node, cat)
	ex2 := NewExecutor(pp2, Options{Workers: 5})
	dec := vector.NewDecoder(bytes.NewReader(state))
	if err := ex2.LoadState(dec); err == nil {
		t.Fatal("process-level resume with different worker count must fail")
	}
}

func TestLoadStateRejectsWrongPlan(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	pp1 := mustCompile(t, node, cat)
	ex1 := NewExecutor(pp1, Options{Workers: 2})
	ex1.RequestSuspend(KindProcess)
	if _, err := ex1.Run(context.Background()); !errors.Is(err, ErrSuspended) {
		t.Fatalf("err = %v", err)
	}
	state := saveState(t, ex1)

	b := plan.NewBuilder(cat)
	other := b.Scan("emp", "id").Limit(3).Node()
	pp2 := mustCompile(t, other, cat)
	ex2 := NewExecutor(pp2, Options{Workers: 2})
	dec := vector.NewDecoder(bytes.NewReader(state))
	if err := ex2.LoadState(dec); err == nil {
		t.Fatal("loading a checkpoint into a different plan must fail")
	}

	// Garbage must be rejected too.
	ex3 := NewExecutor(mustCompile(t, node, cat), Options{Workers: 2})
	if err := ex3.LoadState(vector.NewDecoder(bytes.NewReader([]byte("garbage")))); err == nil {
		t.Fatal("garbage state must fail")
	}
}

func TestRedoViaCancellation(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	pp := mustCompile(t, node, cat)
	ex := NewExecutor(pp, Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ex.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Redo: fresh executor runs from scratch.
	res := runPlan(t, cat, node, 2)
	if res.NumRows() == 0 {
		t.Fatal("redo run produced nothing")
	}
}

func TestBreakerEventMeasurement(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	pp := mustCompile(t, node, cat)
	var sizes []int64
	var pipeTimes int
	ex := NewExecutor(pp, Options{
		Workers: 2,
		OnBreaker: func(ev *BreakerEvent) BreakerAction {
			sizes = append(sizes, ev.ex.measureState(KindPipeline))
			pipeTimes = len(ev.PipelineTimes)
			return ActionContinue
		},
	})
	if _, err := ex.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sizes) != len(pp.Pipelines)-1 {
		t.Fatalf("breaker events = %d, want %d", len(sizes), len(pp.Pipelines)-1)
	}
	for i, s := range sizes {
		if s <= 0 {
			t.Errorf("checkpoint size %d = %d", i, s)
		}
	}
	// The first breaker follows the join build: its checkpoint carries the
	// whole hash table and must dwarf the aggregate-state checkpoint.
	if sizes[0] < sizes[1] {
		t.Logf("sizes = %v", sizes)
	}
	if pipeTimes == 0 {
		t.Error("pipeline times missing in events")
	}
}

func TestSuspendedExecutorRefusesRerun(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	ex := NewExecutor(mustCompile(t, node, cat), Options{Workers: 2})
	ex.RequestSuspend(KindProcess)
	if _, err := ex.Run(context.Background()); !errors.Is(err, ErrSuspended) {
		t.Fatalf("err = %v", err)
	}
	if _, err := ex.Run(context.Background()); err == nil {
		t.Fatal("re-running a suspended executor must fail")
	}
}

func TestLoadStateOnUsedExecutorFails(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	ex := NewExecutor(mustCompile(t, node, cat), Options{Workers: 1})
	if _, err := ex.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ex.LoadState(vector.NewDecoder(bytes.NewReader(nil))); err == nil {
		t.Fatal("LoadState after Run must fail")
	}
}

func TestAccountantGrowth(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	pp := mustCompile(t, node, cat)
	acct := NewAccountant()
	ex := NewExecutor(pp, Options{Workers: 2, Accountant: acct})
	if _, err := ex.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if acct.ProcessedBytes() <= 0 {
		t.Fatal("accountant saw no data")
	}
	img := acct.ImageBytes(0)
	if img <= acct.Baseline {
		t.Error("image must exceed baseline after processing")
	}
	if acct.ImageBytes(1000) != img+1000 {
		t.Error("live state must add to image")
	}
	if ex.ProcessImagePadding(img*2) != 0 {
		t.Error("no padding needed when serialized exceeds image")
	}
	if ex.ProcessImagePadding(0) <= 0 {
		t.Error("padding must be positive for tiny serialized states")
	}
}

func TestElapsedAccumulatesAcrossResume(t *testing.T) {
	cat := testDB(t)
	node := complexQuery(cat)
	ex1 := NewExecutor(mustCompile(t, node, cat), Options{Workers: 2})
	ex1.RequestSuspend(KindProcess)
	_, err := ex1.Run(context.Background())
	if !errors.Is(err, ErrSuspended) {
		t.Fatal(err)
	}
	e1 := ex1.Elapsed()
	if e1 <= 0 {
		t.Fatal("elapsed must be positive")
	}
	state := saveState(t, ex1)
	ex2 := NewExecutor(mustCompile(t, node, cat), Options{Workers: 2})
	loadState(t, ex2, state)
	if _, err := ex2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ex2.Elapsed() < e1 {
		t.Errorf("elapsed after resume %v < before %v", ex2.Elapsed(), e1)
	}
	if len(ex2.PipelineTimes()) != len(ex2.Plan().Pipelines) {
		t.Error("pipeline times incomplete")
	}
}

// TestCountingWriterTakesStrings: measureState and the breaker-size
// estimate encode into a countingWriter, whose WriteString lets a VARCHAR
// column encode without an allocation per value, and which counts the
// bytes a buffer would hold.
func TestCountingWriterTakesStrings(t *testing.T) {
	v := vector.New(vector.TypeString, vector.ChunkCapacity)
	for i := 0; i < vector.ChunkCapacity; i++ {
		v.AppendString(fmt.Sprintf("row %d", i))
	}
	var cw countingWriter
	enc := vector.NewEncoder(&cw)
	if n := testing.AllocsPerRun(10, func() { enc.Vector(v) }); n != 0 {
		t.Errorf("encoding %d strings allocates %v times, want 0", v.Len(), n)
	}
	var buf bytes.Buffer
	vector.NewEncoder(&buf).Vector(v)
	if want := 11 * int64(buf.Len()); cw.n != want { // AllocsPerRun runs it once more to warm up
		t.Errorf("counted %d bytes, want %d", cw.n, want)
	}
}
