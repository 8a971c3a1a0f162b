package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/tpch"
)

// tpchSF sizes tpch-inproc: 600k lineitem rows, one round of the 22 queries
// in about half a second on two cores, so a run sees some twenty rounds.
const tpchSF = 0.1

const numTPCH = 22

// stringTail lists the queries whose cost is string processing (LIKE,
// substring, IN over strings) — the tail ROADMAP item 4 is after.
var stringTail = []int{13, 16, 19, 22}

// tpchInproc runs the 22 TPC-H queries round-robin through Query.Run from
// one caller. The engine (and its generated kernels) does all the work;
// server, controlplane, checkpoint and blobstore do none.
type tpchInproc struct {
	cfg    config
	sf     float64
	oracle *oracle

	dir       string
	db        *riveter.DB
	queries   [numTPCH + 1]*riveter.Query
	prepareUS []float64

	// Traced runs also drive plan and engine directly, one layer below
	// PrepareTPCH and Query.Run, which takes a catalog of the benchmark's own.
	cat      *catalog.Catalog
	builders [numTPCH + 1]tpch.Query
}

func newTPCHInproc(cfg config, o *oracle) *tpchInproc {
	w := &tpchInproc{cfg: cfg, sf: tpchSF, oracle: o}
	if cfg.smoke {
		w.sf = smokeSF
	}
	return w
}

func (w *tpchInproc) sizes() string {
	return fmt.Sprintf("closed loop, 1 caller; SF %g (%d lineitem rows); 22 queries per round; workers %d",
		w.sf, int(6e6*w.sf), w.cfg.workers)
}

func (w *tpchInproc) setUp() error {
	dir, err := runDir(w.cfg.tmpBase)
	if err != nil {
		return err
	}
	w.dir = dir
	w.db = riveter.Open(riveter.WithFS(newMemFS()), riveter.WithWorkers(w.cfg.workers), riveter.WithCheckpointDir(filepath.Join(dir, "ckpt")))
	if err := w.db.GenerateTPCH(w.sf); err != nil {
		return fmt.Errorf("generate TPC-H: %w", err)
	}
	w.prepareUS = w.prepareUS[:0]
	for id := 1; id <= numTPCH; id++ {
		t0 := time.Now()
		q, err := w.db.PrepareTPCH(id)
		if err != nil {
			return fmt.Errorf("prepare Q%d: %w", id, err)
		}
		w.prepareUS = append(w.prepareUS, us(time.Since(t0)))
		w.queries[id] = q
	}
	if w.cfg.trace {
		if w.cat, err = tpch.Generate(tpch.Config{SF: w.sf}); err != nil {
			return fmt.Errorf("generate TPC-H catalog: %w", err)
		}
		for id := 1; id <= numTPCH; id++ {
			if w.builders[id], err = tpch.Get(id); err != nil {
				return err
			}
		}
	}
	// One discarded pass: first executions fault in the column data and
	// size the runtime's heap.
	ctx := context.Background()
	for id := 1; id <= numTPCH; id++ {
		res, err := w.queries[id].Run(ctx)
		if err != nil {
			return fmt.Errorf("warm-up Q%d: %w", id, err)
		}
		if err := w.oracle.check(w.sf, id, res); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *tpchInproc) tearDown() {
	w.db, w.cat = nil, nil
	w.queries = [numTPCH + 1]*riveter.Query{}
	os.RemoveAll(w.dir)
}

func (w *tpchInproc) run(d time.Duration, rec *Recorder) *result {
	ctx := context.Background()
	res := &result{}
	var (
		perQuery  [numTPCH + 1][]float64 // Query.Run, ms
		roundMS   []float64
		busy      time.Duration
		allocated uint64
		queries   int

		compileUS, runMS, directMS, allocMB, pipeMaxMS [numTPCH + 1][]float64
		lastPipes                                      [numTPCH + 1][]time.Duration
	)
	start := time.Now()
	op := 0
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		var roundBusy time.Duration
		failedBefore := res.failed
		for id := 1; id <= numTPCH; id++ {
			op++
			res.attempted++
			a0 := heapAllocBytes()
			t0 := time.Now()
			out, err := w.queries[id].Run(ctx)
			t1 := time.Now()
			allocated += heapAllocBytes() - a0
			if err != nil {
				res.fail("Q%d: %v", id, err)
				continue
			}
			if err := w.oracle.check(w.sf, id, out); err != nil {
				res.fail("%v", err)
			}
			lat := t1.Sub(t0)
			roundBusy += lat
			perQuery[id] = append(perQuery[id], ms(lat))
			queries++
			if rec == nil {
				continue
			}

			// The traced operation is the same work one layer down: what
			// PrepareTPCH and Query.Run do, called step by step so each
			// step is a span inside the operation.
			a0 = heapAllocBytes()
			p0 := time.Now()
			node := w.builders[id].Build(plan.NewBuilder(w.cat), w.sf)
			c0 := time.Now()
			pp, err := engine.CompileWith(node, w.cat, engine.CompileOptions{})
			c1 := time.Now()
			if err != nil {
				res.fail("engine compile Q%d: %v", id, err)
				continue
			}
			ex := engine.NewExecutor(pp, engine.Options{Workers: w.cfg.workers})
			r0 := time.Now()
			direct, err := ex.Run(ctx)
			r1 := time.Now()
			a1 := heapAllocBytes()
			if err != nil {
				res.fail("engine run Q%d: %v", id, err)
				continue
			}
			if err := w.oracle.check(w.sf, id, direct); err != nil {
				res.fail("engine-direct %v", err)
			}
			root := rec.add(op, 0, "client", "plan_compile_run", p0, r1)
			rec.add(op, root, "plan", "build", p0, c0)
			rec.add(op, root, "engine", "compile", c0, c1)
			rec.add(op, root, "engine", "run", r0, r1)
			directMS[id] = append(directMS[id], ms(r1.Sub(c0)))
			compileUS[id] = append(compileUS[id], us(c1.Sub(c0)))
			runMS[id] = append(runMS[id], ms(r1.Sub(r0)))
			allocMB[id] = append(allocMB[id], float64(a1-a0)/(1<<20))
			pipes := ex.PipelineTimes()
			lastPipes[id] = pipes
			slowest := time.Duration(0)
			for _, p := range pipes {
				if p > slowest {
					slowest = p
				}
			}
			pipeMaxMS[id] = append(pipeMaxMS[id], ms(slowest))
		}
		busy += roundBusy
		if roundFailed := res.failed > failedBefore; !roundFailed {
			roundMS = append(roundMS, ms(roundBusy))
		}
	}

	done := queries
	if done == 0 {
		return res
	}
	// The operation a client of this workload waits for is one pass over
	// all 22 queries; a single query's latency depends on which query it is.
	res.latencyMS = roundMS
	res.throughput = float64(done) / busy.Seconds()
	res.allocMBPerOp = float64(allocated) / (1 << 20) / float64(done)

	tail := 0.0
	for _, id := range stringTail {
		tail += median(perQuery[id])
	}
	res.endToEnd = append(res.endToEnd,
		Metric{Name: "queries_per_s", Value: res.throughput, Unit: "1/s", N: done, Note: "queries completed per second inside Query.Run"})
	res.endToEnd = timing(res.endToEnd, "round_ms", "ms", roundMS)
	res.endToEnd = append(res.endToEnd,
		Metric{Name: "string_tail_ms", Value: tail, Unit: "ms", N: len(roundMS), Note: "sum of the medians of Q13, Q16, Q19, Q22"},
		Metric{Name: "alloc_mb_per_query", Value: res.allocMBPerOp, Unit: "MB", N: done})
	for id := 1; id <= numTPCH; id++ {
		res.endToEnd = append(res.endToEnd, Metric{Name: fmt.Sprintf("query_ms.Q%d", id), Value: median(perQuery[id]), Unit: "ms", N: len(perQuery[id]), Note: "median"})
	}

	res.perLayer = append(res.perLayer, Metric{Name: "plan.prepare_tpch_us", Value: median(w.prepareUS), Unit: "us", N: len(w.prepareUS), Note: "median DB.PrepareTPCH over the 22 queries"})
	if rec != nil {
		for id := 1; id <= numTPCH; id++ {
			q := fmt.Sprintf("Q%d", id)
			n := len(runMS[id])
			res.perLayer = append(res.perLayer,
				Metric{Name: "engine.compile_us." + q, Value: median(compileUS[id]), Unit: "us", N: n, Note: "median engine.CompileWith"},
				Metric{Name: "engine.run_ms." + q, Value: median(runMS[id]), Unit: "ms", N: n, Note: "median Executor.Run"},
				Metric{Name: "engine.alloc_mb." + q, Value: median(allocMB[id]), Unit: "MB", N: n},
				Metric{Name: "riveter.run_self_us." + q, Value: (median(perQuery[id]) - median(directMS[id])) * 1000, Unit: "us", N: n,
					Note: "median Query.Run − median (CompileWith + Executor.Run): what the root package adds"},
				Metric{Name: "engine.slowest_pipeline_ms." + q, Value: median(pipeMaxMS[id]), Unit: "ms", N: n,
					Note: fmt.Sprintf("Executor.PipelineTimes of the last run: %v", lastPipes[id])})
		}
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
