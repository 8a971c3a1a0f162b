package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/server"
)

// preemptSF sizes serve-preempt: batch queries of 20–200 ms, interactive
// ones of about 10 ms.
const preemptSF = 0.05

// interactiveGap is the mean of the exponential gaps between interactive
// arrivals. At about 10 ms of service each that is roughly a tenth of the
// one slot: far from saturation under FIFO and under preemption alike, so
// the queue cannot grow, yet nearly every arrival finds a batch query in
// the slot.
const interactiveGap = 30 * time.Millisecond

var (
	batchQueries       = []int{2, 7, 10, 18, 20}
	interactiveQueries = []int{6, 14, 15}
)

// servePreempt runs one serving instance with the default policy and
// preemption level and a single slot under contention: a closed-loop batch
// client keeps the slot busy while an open-loop stream of short interactive
// queries arrives on a seeded schedule. The server's scheduler and policy
// decide the outcome; this is where preemption that does or does not pay
// becomes a number a client sees.
type servePreempt struct {
	cfg    config
	sf     float64
	gap    time.Duration
	oracle *oracle

	dir string
	db  *riveter.DB
	srv *server.Server
	rng *rand.Rand
	// procs is the GOMAXPROCS setUp replaced, restored by tearDown.
	procs      int
	generation int // servers started so far

	aloneMS map[int]float64 // uninterrupted Submit→Wait median per query
}

func newServePreempt(cfg config, o *oracle) *servePreempt {
	w := &servePreempt{cfg: cfg, sf: preemptSF, gap: interactiveGap, oracle: o}
	if cfg.smoke {
		w.sf, w.gap = smokeSF, 20*time.Millisecond
	}
	return w
}

func (w *servePreempt) sizes() string {
	return fmt.Sprintf("SF %g (%d lineitem rows); 1 slot, default policy and preempt level, fold off; 1 closed-loop batch client cycling Q%v; open-loop interactive Q%v, Poisson arrivals of mean gap %v, timed from the due time; workers %d",
		w.sf, int(6e6*w.sf), batchQueries, interactiveQueries, w.gap, w.cfg.workers)
}

func (w *servePreempt) setUp() (err error) {
	if w.dir, err = runDir(w.cfg.tmpBase); err != nil {
		return err
	}
	w.db = riveter.Open(riveter.WithFS(newMemFS()), riveter.WithWorkers(w.cfg.workers), riveter.WithCheckpointDir(filepath.Join(w.dir, "ckpt")))
	if err := w.db.GenerateTPCH(w.sf); err != nil {
		return fmt.Errorf("generate TPC-H: %w", err)
	}
	// The engine runs nproc workers; the arrival generator gets a processor
	// of its own on top, as a client on another machine would have.
	w.procs = runtime.GOMAXPROCS(w.cfg.workers + 1)
	w.rng = rand.New(rand.NewSource(w.cfg.seed))

	// Warm-up: every query alone through a server, three times. The median
	// is what a batch query's stretch is measured against.
	if err := w.startServer(); err != nil {
		return err
	}
	defer w.stopServer()
	ctx := context.Background()
	w.aloneMS = map[int]float64{}
	for _, id := range append(append([]int(nil), batchQueries...), interactiveQueries...) {
		var runs []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			res, err := submitWait(ctx, w.srv, server.Request{TPCH: id, Priority: server.Batch})
			if err != nil {
				return fmt.Errorf("warm-up Q%d: %w", id, err)
			}
			runs = append(runs, ms(time.Since(t0)))
			if err := w.oracle.check(w.sf, id, res); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		w.aloneMS[id] = median(runs)
	}
	return nil
}

// startServer starts the instance under test: default policy, default
// preemption level, one slot.
func (w *servePreempt) startServer() (err error) {
	w.generation++
	w.srv, err = server.New(server.Config{
		DB:        w.db,
		Slots:     1,
		StatePath: filepath.Join(w.dir, fmt.Sprintf("serve-%d.state.json", w.generation)),
	})
	return err
}

func (w *servePreempt) stopServer() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownT)
	defer cancel()
	w.srv.Shutdown(ctx)
	w.srv = nil
}

func (w *servePreempt) tearDown() {
	w.stopServer()
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	dir := w.dir
	*w = servePreempt{cfg: w.cfg, sf: w.sf, gap: w.gap, oracle: w.oracle}
	os.RemoveAll(dir)
}

// arrival is one entry of the open-loop schedule, fixed before the run.
type arrival struct {
	due   time.Duration // offset from the start of the phase
	query int
}

// schedule places d/gap arrivals at seeded uniform times in [0, d): a
// Poisson process of mean gap w.gap, conditioned on its count, so that
// every seed offers the same load and only the spacing varies.
func (w *servePreempt) schedule(d time.Duration) []arrival {
	n := max(int(d/w.gap), 1)
	out := make([]arrival, n)
	for i := range out {
		out[i].due = time.Duration(w.rng.Float64() * float64(d))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].due < out[j].due })
	for i := range out {
		out[i].query = interactiveQueries[w.rng.Intn(len(interactiveQueries))]
	}
	return out
}

// sessionSample is what one finished session contributes.
type sessionSample struct {
	query     int
	latencyMS float64 // client clock: due (or submit) to Wait returning
	info      server.Info
}

// segmentLength is how long one server lives. A server keeps every session
// it ever ran, executor and all — a few megabytes each, a quarter of a
// gigabyte per second of this workload — and the growing heap slows
// everything in the process, differently from run to run. So a phase is cut
// into segments, each on a fresh server and a collected heap; what a
// session pins is measured per segment and reported.
const segmentLength = 5 * time.Second

// segment is the raw outcome of one server's life.
type segment struct {
	interactive, batch []sessionSample
	lateMS             []float64
	backlogGrowth      float64
	batchTime          time.Duration // start to the last batch completion
	allocated          uint64
	retained           float64 // bytes the live heap grew by
}

func (w *servePreempt) run(d time.Duration, rec *Recorder) *result {
	res := &result{}
	n := max(int((d+segmentLength/2)/segmentLength), 1)
	var (
		all       segment
		growths   []float64
		batchTime time.Duration
	)
	for i := 0; i < n; i++ {
		seg, err := w.segment(d/time.Duration(n), rec, res, len(all.interactive))
		if err != nil {
			res.attempted++
			res.fail("%v", err)
			return res
		}
		all.interactive = append(all.interactive, seg.interactive...)
		all.batch = append(all.batch, seg.batch...)
		all.lateMS = append(all.lateMS, seg.lateMS...)
		all.allocated += seg.allocated
		all.retained += seg.retained
		growths = append(growths, seg.backlogGrowth)
		batchTime += seg.batchTime
	}
	interactive, batch := all.interactive, all.batch
	if len(interactive) == 0 || len(batch) == 0 {
		return res
	}
	for _, s := range interactive {
		res.latencyMS = append(res.latencyMS, s.latencyMS)
	}
	sessions := len(interactive) + len(batch)
	res.throughput = float64(len(batch)) / batchTime.Seconds()
	res.allocMBPerOp = float64(all.allocated) / (1 << 20) / float64(sessions)

	lat := summarize(res.latencyMS)
	late := summarize(all.lateMS)
	growth := mean(growths)
	switch {
	// The median, not the tail: with every processor running an engine
	// worker a woken goroutine can wait out the runtime's 10 ms preemption
	// quantum, so the tail of lateness is the machine's, and — latency being
	// timed from the due time — it is inside the latency numbers, not hidden
	// by them. A generator that cannot keep its schedule shows in the median.
	case late.P50 > 0.1*lat.P50:
		res.invalid = fmt.Sprintf("generator ran late: median lateness %.3f ms exceeds a tenth of the interactive median %.3f ms", late.P50, lat.P50)
	case growth > 1:
		res.invalid = fmt.Sprintf("backlog still growing: %.2f more requests in flight over the second half of a segment's arrivals than over the first", growth)
	}

	res.endToEnd = timing(res.endToEnd, "interactive_ms", "ms", res.latencyMS)
	res.endToEnd = append(res.endToEnd,
		Metric{Name: "batch_per_s", Value: res.throughput, Unit: "1/s", N: len(batch), Note: "batch queries completed per second"})
	res.endToEnd = timing(res.endToEnd, "generator_late_ms", "ms", all.lateMS)
	res.endToEnd = append(res.endToEnd,
		Metric{Name: "backlog_growth", Value: growth, Unit: "count", N: len(all.lateMS),
			Note: fmt.Sprintf("mean interactive requests in flight at an arrival, second half of a segment's arrivals minus first, mean of %d segments", n)})

	var iWait, bWait, stretch []float64
	var preemptions, abandoned int
	var aloneSum, aloneSquares float64
	for _, s := range interactive {
		iWait = append(iWait, ms(s.info.Waited))
	}
	for _, s := range batch {
		bWait = append(bWait, ms(s.info.Waited))
		stretch = append(stretch, ms(s.info.Waited+s.info.Ran)/w.aloneMS[s.query])
		preemptions += s.info.Preemptions
		abandoned += s.info.Abandoned
		aloneSum += w.aloneMS[s.query]
		aloneSquares += w.aloneMS[s.query] * w.aloneMS[s.query]
	}
	res.perLayer = append(res.perLayer,
		Metric{Name: "server.queue_wait_ms.interactive", Value: median(iWait), Unit: "ms", N: len(iWait), Note: "median Info.Waited"},
		Metric{Name: "server.queue_wait_ms.batch", Value: median(bWait), Unit: "ms", N: len(bWait), Note: "median Info.Waited, all dispatches of a session"},
		Metric{Name: "server.preemptions_per_batch", Value: float64(preemptions) / float64(len(batch)), Unit: "count", N: len(batch)},
		Metric{Name: "server.preempt_abandoned_share", Value: float64(abandoned) / float64(max(preemptions+abandoned, 1)), Unit: "ratio", N: preemptions + abandoned},
		Metric{Name: "server.retained_mb_per_session", Value: all.retained / (1 << 20) / float64(sessions), Unit: "MB", N: sessions,
			Note: "growth of the live heap over a server's life per finished session: what the server keeps for a session it is done with"},
		Metric{Name: "server.batch_stretch", Value: median(stretch), Unit: "ratio", N: len(stretch), Note: "median (Waited+Ran) / the query's uninterrupted time"},
		// Without preemption a random arrival waits out the rest of the batch
		// query in the slot: the mean residual life, Σx² / 2Σx.
		Metric{Name: "server.fifo_equivalent_wait_ms", Value: aloneSquares / (2 * aloneSum), Unit: "ms", N: len(batch), Note: "mean residual uninterrupted batch query: what an arrival would wait without preemption"},
	)
	return res
}

// segment runs the two clients against a fresh server for d. Failures go
// to res; opBase numbers the segment's traced operations after those of
// the segments before it.
func (w *servePreempt) segment(d time.Duration, rec *Recorder, res *result, opBase int) (*segment, error) {
	ctx := context.Background()
	if err := w.startServer(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	defer w.stopServer()
	sched := w.schedule(d)

	var (
		seg      segment
		mu       sync.Mutex // guards res, seg's slices and backlog
		backlog  []float64
		inFlight atomic.Int64
		clients  sync.WaitGroup
		stop     atomic.Bool
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		res.fail(format, args...)
	}
	attempt := func() {
		mu.Lock()
		defer mu.Unlock()
		res.attempted++
	}
	// finish waits for a session and checks its result. It holds no lock
	// while it works: the generator must never wait for a checker.
	finish := func(id int, sess *server.Session, from time.Time) (sessionSample, bool) {
		out, err := w.srv.Wait(ctx, sess.ID())
		done := time.Now()
		if err != nil {
			fail("Q%d: %v", id, err)
			return sessionSample{}, false
		}
		if err := w.oracle.check(w.sf, id, out); err != nil {
			fail("%v", err)
		}
		info, _ := w.srv.Info(sess.ID())
		return sessionSample{query: id, latencyMS: ms(done.Sub(from)), info: info}, true
	}

	live0 := heapLiveAfterGC()
	a0 := heapAllocBytes()
	start := time.Now()

	// The batch client: closed loop, one query in the system at a time.
	clients.Add(1)
	go func() {
		defer clients.Done()
		for i := 0; !stop.Load(); i++ {
			id := batchQueries[i%len(batchQueries)]
			t0 := time.Now()
			sess, err := w.srv.Submit(server.Request{TPCH: id, Priority: server.Batch})
			attempt()
			if err != nil {
				fail("submit batch Q%d: %v", id, err)
				return
			}
			s, ok := finish(id, sess, t0)
			mu.Lock()
			if ok {
				seg.batch = append(seg.batch, s)
			}
			seg.batchTime = time.Since(start)
			mu.Unlock()
		}
	}()

	// The interactive stream: open loop. This goroutine only sleeps and
	// starts requests; each request submits and waits on a goroutine of its
	// own, so neither a slow Submit nor a slow reply delays a later arrival.
	for i, a := range sched {
		op := opBase + i + 1
		due := start.Add(a.due)
		time.Sleep(time.Until(due))
		late := time.Since(due)
		backlogNow := float64(inFlight.Add(1) - 1)
		mu.Lock()
		res.attempted++
		seg.lateMS = append(seg.lateMS, ms(late))
		backlog = append(backlog, backlogNow)
		mu.Unlock()
		clients.Add(1)
		go func(a arrival) {
			defer clients.Done()
			defer inFlight.Add(-1)
			t0 := time.Now()
			sess, err := w.srv.Submit(server.Request{TPCH: a.query, Priority: server.Interactive})
			t1 := time.Now()
			if err != nil {
				fail("submit interactive Q%d: %v", a.query, err)
				return
			}
			s, ok := finish(a.query, sess, due)
			if !ok {
				return
			}
			mu.Lock()
			seg.interactive = append(seg.interactive, s)
			mu.Unlock()
			if rec == nil {
				return
			}
			// What Submit did before queueing, timed on its own: the ladder
			// child of the submit span.
			p0 := time.Now()
			_, perr := w.db.PrepareTPCH(a.query)
			p1 := time.Now()
			if perr != nil {
				fail("prepare Q%d: %v", a.query, perr)
			}
			end := due.Add(time.Duration(s.latencyMS * float64(time.Millisecond)))
			root := rec.add(op, 0, "client", "interactive", due, end)
			rec.add(op, root, "client", "generator_late", due, t0)
			submit := rec.add(op, root, "server", "submit", t0, t1)
			rec.add(op, submit, "plan", "prepare_tpch", p0, p1)
			rec.add(op, root, "server", "queue_wait", t1, t1.Add(s.info.Waited))
			rec.add(op, root, "engine", "run", t1.Add(s.info.Waited), t1.Add(s.info.Waited+s.info.Ran))
		}(a)
	}
	stop.Store(true)
	clients.Wait()
	seg.allocated = heapAllocBytes() - a0
	seg.retained = float64(heapLiveAfterGC()) - float64(live0)
	if half := len(backlog) / 2; half > 0 {
		seg.backlogGrowth = mean(backlog[len(backlog)-half:]) - mean(backlog[:half])
	}
	return &seg, nil
}
