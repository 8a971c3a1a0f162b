package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/blobstore"
)

// suspendSF sizes suspend-cycle: the six queries run 20–100 ms
// uninterrupted, long enough to land a suspension at 30–70 % of the way
// and short enough for a run to complete well over a hundred cycles.
const suspendSF = 0.02

// suspendQueries are the multi-pipeline, state-heavy TPC-H queries: joins
// and aggregations that hold real operator state when interrupted.
var suspendQueries = []int{7, 10, 13, 18, 20, 21}

var suspendFractions = []float64{0.3, 0.5, 0.7}

// suspendKinds are the strategy labels: what is suspended and where the
// state goes.
var suspendKinds = []string{"pipeline", "process", "store", "lineage"}

// suspendCycle interrupts a running query, persists its state, restores it
// into a fresh Query and lets it finish — the paper's core operation —
// rotating through queries, strategies and suspension points. strategy,
// checkpoint and blobstore do the distinctive work, in both directions:
// writes on suspend beside reads on resume, files beside the store.
type suspendCycle struct {
	cfg    config
	sf     float64
	oracle *oracle

	dir   string
	db    *riveter.DB
	store *blobstore.Store
	// fileDB is an empty DB on the same directory without a blob store: a
	// store-backed DB prices every suspension at store speed, so the
	// file and lineage estimates come from this one's calibration.
	fileDB *riveter.DB

	baselineMS map[int]float64 // uninterrupted median per query, from the warm-up
	rng        *rand.Rand
	laps       int
}

type cyclePlan struct {
	query    int
	kind     string
	fraction float64
}

// lap returns the next lap of the rotation: every (query, strategy) pair
// once, in a seeded order, each at a suspension point that rotates from lap
// to lap so that a lap holds every fraction equally often. A lap is the
// unit the run measures in — whole laps only — so every run, whatever its
// seed, has the same mix.
func (w *suspendCycle) lap() []cyclePlan {
	var out []cyclePlan
	for qi, q := range suspendQueries {
		for ki, k := range suspendKinds {
			f := suspendFractions[(w.laps+qi+ki)%len(suspendFractions)]
			out = append(out, cyclePlan{q, k, f})
		}
	}
	w.rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	w.laps++
	return out
}

func newSuspendCycle(cfg config, o *oracle) *suspendCycle {
	w := &suspendCycle{cfg: cfg, sf: suspendSF, oracle: o}
	if cfg.smoke {
		w.sf = smokeSF
	}
	return w
}

func (w *suspendCycle) sizes() string {
	return fmt.Sprintf("closed loop, 1 caller; SF %g (%d lineitem rows); laps of queries %v × strategies %v in seeded order, fractions %v rotating; blob store on the Local backend; workers %d",
		w.sf, int(6e6*w.sf), suspendQueries, suspendKinds, suspendFractions, w.cfg.workers)
}

func (w *suspendCycle) setUp() (err error) {
	if w.dir, err = runDir(w.cfg.tmpBase); err != nil {
		return err
	}
	ckpt := filepath.Join(w.dir, "ckpt")
	w.db = riveter.Open(
		riveter.WithFS(newMemFS()),
		riveter.WithWorkers(w.cfg.workers),
		riveter.WithCheckpointDir(ckpt),
		riveter.WithBlobStore(riveter.StoreConfig{Dir: filepath.Join(w.dir, "store")}),
	)
	if w.store, err = w.db.BlobStore(); err != nil {
		return err
	}
	w.fileDB = riveter.Open(riveter.WithFS(newMemFS()), riveter.WithCheckpointDir(ckpt))
	if err := w.db.GenerateTPCH(w.sf); err != nil {
		return fmt.Errorf("generate TPC-H: %w", err)
	}

	w.rng = rand.New(rand.NewSource(w.cfg.seed))
	w.laps = 0

	// Warm-up: each query uninterrupted, five times; the median is both the
	// clock the suspension point is set by and the baseline a cycle's
	// overhead is taken against.
	ctx := context.Background()
	w.baselineMS = map[int]float64{}
	for _, id := range suspendQueries {
		q, err := w.db.PrepareTPCH(id)
		if err != nil {
			return err
		}
		var runs []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			exec, err := q.Start(ctx)
			if err != nil {
				return fmt.Errorf("warm-up Q%d: %w", id, err)
			}
			res, err := exec.Result()
			if err != nil {
				return fmt.Errorf("warm-up Q%d: %w", id, err)
			}
			runs = append(runs, ms(time.Since(t0)))
			if err := w.oracle.check(w.sf, id, res); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		w.baselineMS[id] = median(runs)
	}
	return nil
}

func (w *suspendCycle) tearDown() {
	dir := w.dir
	*w = suspendCycle{cfg: w.cfg, sf: w.sf, oracle: w.oracle}
	os.RemoveAll(dir)
}

// cycleTimes are one cycle's timestamps-as-durations, all in ms.
type cycleTimes struct {
	pre, quiesce, persist, prepare, restore, remaining float64
	bytes                                              int64
	estSuspendMS, estResumeMS                          float64
}

func (c cycleTimes) ls() float64 { return c.quiesce + c.persist }

func (w *suspendCycle) run(d time.Duration, rec *Recorder) *result {
	res := &result{}
	type perKind struct {
		ls, lr, quiesce, persist, restore, bytes, errLs, errLr []float64
	}
	kinds := map[string]*perKind{}
	for _, k := range suspendKinds {
		kinds[k] = &perKind{}
	}
	var (
		overheadPct, suspendResume     []float64
		missed, cycles                 int
		busy                           time.Duration
		uploaded, chunks, dedupHits    int64
		secondChunks, secondDedupChunk int64
	)
	a0 := heapAllocBytes()
	start := time.Now()
	op := 0
	for first := true; first || time.Since(start) < d; first = false {
		lapCost := map[string][]float64{}
		plan := w.lap()
		for _, p := range plan {
			op++
			res.attempted++
			// A traced store cycle suspends twice under one key, so the
			// second upload shows what content-addressed chunks save.
			suspensions := 1
			if rec != nil && p.kind == "store" {
				suspensions = 2
			}
			c, err := w.cycle(op, p, suspensions, rec)
			busy += c.wall
			if err != nil {
				res.fail("Q%d %s at %.1f: %v", p.query, p.kind, p.fraction, err)
				continue
			}
			if c.missed {
				missed++
				continue
			}
			cycles++
			k := kinds[p.kind]
			k.ls = append(k.ls, c.ls())
			k.lr = append(k.lr, c.restore)
			k.quiesce = append(k.quiesce, c.quiesce)
			k.persist = append(k.persist, c.persist)
			k.restore = append(k.restore, c.restore)
			k.bytes = append(k.bytes, float64(c.bytes))
			k.errLs = append(k.errLs, (c.estSuspendMS-c.persist)/c.persist*100)
			k.errLr = append(k.errLr, (c.estResumeMS-c.restore)/c.restore*100)
			suspendResume = append(suspendResume, c.ls()+c.restore)
			lapCost[p.kind] = append(lapCost[p.kind], c.ls()+c.restore)
			base := w.baselineMS[p.query]
			overheadPct = append(overheadPct, (c.pre+c.ls()+c.prepare+c.restore+c.remaining-base)/base*100)
			if c.first != nil {
				uploaded += c.first.UploadedBytes
				chunks += int64(c.first.Chunks)
				dedupHits += int64(c.first.DedupHits)
			}
			if c.second != nil {
				secondChunks += int64(c.second.Chunks)
				secondDedupChunk += int64(c.second.DedupHits)
			}
		}
		// The strategies cost an order of magnitude apart, so the median
		// over single cycles would sit in the gap between two of them. A
		// lap is one sample of what the whole mix costs: the mean over the
		// strategies of the strategy's median, so that a missed suspension
		// thins one strategy's sample instead of shifting the mix, and one
		// slow flush does not carry the lap.
		if len(lapCost) == len(suspendKinds) {
			sum := 0.0
			for _, costs := range lapCost {
				sum += median(costs)
			}
			res.latencyMS = append(res.latencyMS, sum/float64(len(lapCost)))
		}
	}
	allocated := heapAllocBytes() - a0

	if cycles == 0 {
		return res
	}
	done := cycles
	res.throughput = float64(done) / busy.Seconds()
	res.allocMBPerOp = float64(allocated) / (1 << 20) / float64(res.attempted)
	if float64(missed) > 0.1*float64(res.attempted) {
		res.invalid = fmt.Sprintf("%d of %d suspensions missed (query finished first)", missed, res.attempted)
	}

	for _, name := range suspendKinds {
		k := kinds[name]
		res.endToEnd = append(res.endToEnd,
			Metric{Name: "ls_" + name + "_ms", Value: median(k.ls), Unit: "ms", N: len(k.ls), Note: "median L_s: Suspend call until the persist call returns"},
			Metric{Name: "lr_" + name + "_ms", Value: median(k.lr), Unit: "ms", N: len(k.lr), Note: "median L_r: the synchronous StartFrom* call"})
	}
	res.endToEnd = append(res.endToEnd,
		Metric{Name: "cycle_overhead_pct", Value: mean(overheadPct), Unit: "%", N: len(overheadPct), Note: "mean over cycles of (interrupted − uninterrupted) / uninterrupted"},
		Metric{Name: "cycles_per_s", Value: res.throughput, Unit: "1/s", N: done})
	res.endToEnd = timing(res.endToEnd, "suspend_resume_ms", "ms", suspendResume)
	res.endToEnd = append(res.endToEnd, Metric{Name: "lap_suspend_resume_ms", Value: median(res.latencyMS), Unit: "ms", N: len(res.latencyMS),
		Note: "median over laps of the lap's L_s + L_r: median within each strategy, mean across the four"})

	for _, name := range suspendKinds {
		k := kinds[name]
		n := len(k.ls)
		res.perLayer = append(res.perLayer,
			Metric{Name: "strategy.quiesce_ms." + name, Value: median(k.quiesce), Unit: "ms", N: n, Note: "median Suspend → Wait returns"},
			Metric{Name: "checkpoint.persist_ms." + name, Value: median(k.persist), Unit: "ms", N: n, Note: "median persist call"},
			Metric{Name: "checkpoint.bytes." + name, Value: median(k.bytes), Unit: "bytes", N: n, Note: "median persisted bytes from the call's Info"},
			Metric{Name: "checkpoint.restore_ms." + name, Value: median(k.restore), Unit: "ms", N: n, Note: "median StartFrom* call"},
			Metric{Name: "costmodel.est_error_pct.suspend." + name, Value: median(k.errLs), Unit: "%", N: n, Note: "median of (estimated − measured persist) / measured"},
			Metric{Name: "costmodel.est_error_pct.resume." + name, Value: median(k.errLr), Unit: "%", N: n, Note: "median of (estimated − measured restore) / measured"})
	}
	res.perLayer = append(res.perLayer,
		Metric{Name: "suspend.missed", Value: float64(missed), Unit: "count", N: res.attempted, Note: "query finished before the suspension landed; counted, not a failure"},
		Metric{Name: "blobstore.upload_bytes", Value: float64(uploaded) / float64(max(len(kinds["store"].ls), 1)), Unit: "bytes", N: len(kinds["store"].ls), Note: "mean compressed bytes sent per store suspension"},
		Metric{Name: "blobstore.first_dedup_share", Value: float64(dedupHits) / float64(max(chunks, 1)), Unit: "ratio", N: int(chunks), Note: "chunks already stored, first suspension on a key (store emptied between cycles)"})
	if rec != nil {
		res.perLayer = append(res.perLayer, Metric{Name: "blobstore.dedup_share", Value: float64(secondDedupChunk) / float64(max(secondChunks, 1)), Unit: "ratio", N: int(secondChunks), Note: "chunks already stored, second suspension on the same key"})
	}
	return res
}

// cycleOutcome is what one cycle produced. missed means the query finished
// before the first suspension landed; the times are then zero.
type cycleOutcome struct {
	cycleTimes
	missed bool
	// wall runs from the first call to the final result, before the
	// checking and cleaning up that follow.
	wall time.Duration
	// first and second are what the blob store reported for the cycle's
	// suspensions (store cycles only).
	first, second *riveter.StoreCheckpointInfo
}

type pendingSpan struct {
	layer, name string
	start, end  time.Time
}

// cycle runs one query with the planned suspension and, for suspensions >
// 1, a further one a fifth of the query later; the times it returns are
// the first suspension's.
func (w *suspendCycle) cycle(op int, p cyclePlan, suspensions int, rec *Recorder) (out cycleOutcome, err error) {
	ctx := context.Background()
	begin := time.Now()
	base := time.Duration(w.baselineMS[p.query] * float64(time.Millisecond))
	q, err := w.db.PrepareTPCH(p.query)
	if err != nil {
		return out, err
	}
	key := fmt.Sprintf("cycle-%d", op)

	var spans []pendingSpan
	span := func(layer, name string, t0, t1 time.Time) {
		if rec != nil {
			spans = append(spans, pendingSpan{layer, name, t0, t1})
		}
	}
	opStart := time.Now()
	var exec *riveter.Execution
	if p.kind == "lineage" {
		exec, err = q.StartWithLineage(ctx, riveter.LineageConfig{})
	} else {
		exec, err = q.Start(ctx)
	}
	if err != nil {
		return out, fmt.Errorf("start: %w", err)
	}
	runStart := opStart
	at := time.Duration(p.fraction * float64(base))
	for s := 0; s < suspensions; s++ {
		time.Sleep(time.Until(runStart.Add(at)))
		tS := time.Now()
		if err := exec.Suspend(suspendStrategy(p.kind)); err != nil {
			return out, fmt.Errorf("suspend: %w", err)
		}
		werr := exec.Wait()
		tQ := time.Now()
		if werr == nil {
			// The query got there first. Its result still has to be right;
			// the code after the loop checks it. Only a missed first
			// suspension makes the cycle a miss.
			out.missed = s == 0
			break
		}
		if !errors.Is(werr, riveter.ErrSuspended) {
			return out, fmt.Errorf("wait: %w", werr)
		}
		span("engine", "run", runStart, tS)
		span("strategy", "quiesce."+p.kind, tS, tQ)

		c := cycleTimes{pre: ms(tS.Sub(runStart)), quiesce: ms(tQ.Sub(tS))}
		var path, sealed string
		switch p.kind {
		case "pipeline", "process":
			path = w.db.NewCheckpointPath(key)
			info, err := exec.Checkpoint(path)
			if err != nil {
				return out, fmt.Errorf("checkpoint: %w", err)
			}
			c.bytes = info.TotalBytes
			c.estSuspendMS = ms(w.fileDB.IOProfile().SuspendLatency(c.bytes))
			c.estResumeMS = ms(w.fileDB.IOProfile().ResumeLatency(c.bytes))
		case "store":
			info, err := exec.CheckpointToStore(key)
			if err != nil {
				return out, fmt.Errorf("checkpoint to store: %w", err)
			}
			if s == 0 {
				out.first = info
			} else {
				out.second = info
			}
			c.bytes = info.TotalBytes
			c.estSuspendMS = ms(w.db.IOProfile().SuspendLatency(c.bytes))
			c.estResumeMS = ms(w.db.IOProfile().ResumeLatency(c.bytes))
		case "lineage":
			info, err := exec.SealLineage()
			if err != nil {
				return out, fmt.Errorf("seal lineage: %w", err)
			}
			sealed = info.Path
			c.bytes = info.TailBytes
			c.estSuspendMS = ms(w.fileDB.LineageProfile().SealLatency(info.TailBytes))
			// The model prices a lineage resume as reading the last sealed
			// state plus replay; from outside, the log's size stands in for
			// the state's.
			c.estResumeMS = ms(w.fileDB.IOProfile().ResumeLatency(info.LogBytes))
		}
		tP := time.Now()
		c.persist = ms(tP.Sub(tQ))
		span(persistLayer(p.kind), "persist."+p.kind, tQ, tP)

		// Resume on a fresh Query, as another process would.
		fresh, err := w.db.PrepareTPCH(p.query)
		tF := time.Now()
		if err != nil {
			return out, err
		}
		c.prepare = ms(tF.Sub(tP))
		span("plan", "prepare_tpch", tP, tF)
		var resumed *riveter.Execution
		switch p.kind {
		case "pipeline", "process":
			resumed, err = fresh.StartFromCheckpoint(ctx, path)
		case "store":
			resumed, err = fresh.StartFromStore(ctx, key)
		case "lineage":
			resumed, err = fresh.StartFromLineage(ctx, sealed, riveter.LineageConfig{})
		}
		tR := time.Now()
		if err != nil {
			return out, fmt.Errorf("restore: %w", err)
		}
		c.restore = ms(tR.Sub(tF))
		span(persistLayer(p.kind), "restore."+p.kind, tF, tR)
		w.discard(nil, path, sealed)

		if s == 0 {
			out.cycleTimes = c
		}
		exec, runStart = resumed, tR
		at = base / 5
	}

	result, err := exec.Result()
	end := time.Now()
	if err != nil {
		return out, fmt.Errorf("resumed run: %w", err)
	}
	out.remaining = ms(end.Sub(runStart))
	out.wall = end.Sub(begin)
	span("engine", "run", runStart, end)
	w.discard(exec, "", "")
	if out.first != nil {
		// Empty the store so the next cycle's upload is cold again.
		if err := w.store.DeleteCheckpoint(key); err != nil {
			return out, fmt.Errorf("delete store checkpoint: %w", err)
		}
		if _, err := w.store.GC(); err != nil {
			return out, fmt.Errorf("store gc: %w", err)
		}
	}
	if err := w.oracle.check(w.sf, p.query, result); err != nil {
		return out, err
	}
	if rec != nil && !out.missed {
		root := rec.add(op, 0, "riveter", "cycle."+p.kind, opStart, end)
		for _, s := range spans {
			rec.add(op, root, s.layer, s.name, s.start, s.end)
		}
	}
	return out, nil
}

// discard removes what a finished step leaves behind: a consumed
// checkpoint file, a consumed lineage log, and the log a lineage
// execution wrote while it ran.
func (w *suspendCycle) discard(exec *riveter.Execution, checkpoint, lineageLog string) {
	if checkpoint != "" {
		w.db.FS().Remove(checkpoint)
	}
	if lineageLog != "" {
		w.db.RemoveLineage(lineageLog)
	}
	if exec != nil {
		if lp := exec.LineagePath(); lp != "" {
			w.db.RemoveLineage(lp)
		}
	}
}

func suspendStrategy(kind string) riveter.Strategy {
	switch kind {
	case "pipeline":
		return riveter.PipelineLevel
	case "lineage":
		return riveter.LineageLevel
	}
	return riveter.ProcessLevel // "process" to a file, "store" to the blob store
}

// persistLayer names the module that does a strategy's persistence work.
func persistLayer(kind string) string {
	switch kind {
	case "store":
		return "blobstore"
	case "lineage":
		return "strategy"
	}
	return "checkpoint"
}
