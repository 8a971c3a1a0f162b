package engine

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"github.com/riveterdb/riveter/internal/obs"
)

// The DAG scheduler. One Run call builds one schedule, which owns all
// scheduling state and runs on the Run goroutine; workers and finalizers
// report back over a channel, so every scheduling decision — launching a
// pipeline, repartitioning worker slots, marking a pipeline done, invoking
// the breaker hook, capturing a suspension — happens on a single goroutine.
// That serialization is what keeps breaker events and quiesce captures
// consistent while several pipelines are in flight.
//
// Worker budget: the total number of live worker goroutines never exceeds
// Options.Workers. A pipeline launches with one worker and is topped up from
// free slots; a combine/finalize occupies one slot so a wide DAG cannot
// oversubscribe the host with concurrent finalizes.

// runningPipe is one pipeline currently executing.
type runningPipe struct {
	pi      int
	p       *Pipeline
	src     Source // p's source, bound to the execution
	morsels int64
	cursor  atomic.Int64 // shared morsel cursor, CAS-claimed, never exceeds morsels
	// locals holds one local sink state per worker ever assigned, in
	// assignment order; Combine consumes them in this order.
	locals []LocalState
	// outstanding counts workers still running.
	outstanding int
	// stopped records that a worker exited on a stop signal, so the pipeline
	// quiesced at a morsel boundary instead of exhausting its morsels.
	stopped bool
	// finalizing marks the pipeline's combine/finalize running off-loop.
	finalizing bool
	started    time.Time
	// prior is the pipeline-elapsed time restored from a capture.
	prior time.Duration
}

// elapsedNow is the pipeline's accumulated execution time.
func (rp *runningPipe) elapsedNow() time.Duration {
	return rp.prior + time.Since(rp.started)
}

// schedEvent is one message to the scheduler: a worker of pipeline pi
// exited, at a stop signal when stopped, or the pipeline's combine and
// finalize did (final).
type schedEvent struct {
	pi             int
	stopped, final bool
	err            error
}

// schedule is the per-Run DAG scheduler state.
type schedule struct {
	ex    *Executor
	ctx   context.Context
	start time.Time

	events  chan schedEvent
	running map[int]*runningPipe
	free    int // unassigned worker slots
	maxConc int // max concurrently running pipelines (0 = unbounded)

	// captures collects the in-flight pipelines quiesced by a process-level
	// barrier.
	captures []*inflightPipe

	firstErr    error
	draining    bool // stop launching work; drain outstanding goroutines
	procSuspend bool // a process-level suspension is being honored
	pipeSuspend bool // a breaker committed a pipeline-level suspension
}

func newSchedule(ex *Executor, ctx context.Context, start time.Time) *schedule {
	return &schedule{
		ex:      ex,
		ctx:     ctx,
		start:   start,
		events:  make(chan schedEvent, ex.opts.Workers+1),
		running: make(map[int]*runningPipe),
		free:    ex.opts.Workers,
		maxConc: ex.opts.MaxConcurrentPipelines,
	}
}

// run drives the DAG to completion, suspension, error, or cancellation.
// restored holds the in-flight pipelines of a resumed process-level
// checkpoint (or of a quiesce continued via ClearSuspension); they relaunch
// first, each with exactly its captured worker-local states.
func (s *schedule) run(restored []*inflightPipe) error {
	// A process-level request armed before Run started is honored at once:
	// the pre-launch instant is a valid morsel boundary of every pipeline.
	s.checkProcessRequest()
	if s.draining {
		s.captures = restored
	} else {
		for _, c := range restored {
			s.launch(c)
		}
		s.assign()
	}
	for len(s.running) > 0 {
		if ev := <-s.events; ev.final {
			s.onFinalized(ev)
		} else {
			s.onWorkerExit(ev)
		}
		if !s.draining {
			s.checkProcessRequest()
			s.assign()
		}
	}
	return s.finish()
}

// checkProcessRequest starts a process-level drain when a KindProcess
// suspension request is pending: no further work is launched and every
// running worker stops at its next morsel boundary.
func (s *schedule) checkProcessRequest() {
	if s.draining {
		return
	}
	if SuspendKind(s.ex.suspendReq.Load()) == KindProcess {
		s.draining = true
		s.procSuspend = true
	}
}

// fail records the first error and aborts all in-flight work.
func (s *schedule) fail(err error) {
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.draining = true
	s.ex.stopAll.Store(true)
}

// launch registers a pipeline as running. With a capture, the pipeline
// resumes from its cursor with exactly its captured worker-local states;
// otherwise it starts fresh with a single worker (assign tops it up).
func (s *schedule) launch(c *inflightPipe) *runningPipe {
	ex := s.ex
	p := ex.pp.Pipelines[c.pi]
	src := ex.source(p)
	rp := &runningPipe{pi: c.pi, p: p, src: src, morsels: src.MorselCount(), started: time.Now()}
	rp.cursor.Store(c.cursor)
	rp.prior = c.elapsed
	s.running[c.pi] = rp
	if ex.met.runningPipes != nil {
		ex.met.runningPipes.Set(int64(len(s.running)))
	}
	if ex.tr != nil {
		ex.tr.Event(obs.EvPipelineStart,
			obs.A("pipeline", c.pi), obs.A("workers", max(1, len(c.locals))),
			obs.A("morsels", rp.morsels), obs.A("cursor", c.cursor))
	}
	if len(c.locals) == 0 {
		s.addWorker(rp, nil)
	} else {
		for _, ls := range c.locals {
			s.addWorker(rp, ls)
		}
	}
	return rp
}

// addWorker assigns one worker slot to the pipeline. A nil local gets a
// fresh one from the sink.
func (s *schedule) addWorker(rp *runningPipe, local LocalState) {
	if local == nil {
		local = rp.p.Sink.MakeLocal(s.ex.states[rp.pi])
	}
	rp.locals = append(rp.locals, local)
	rp.outstanding++
	s.free--
	go func() {
		stopped, err := s.ex.runWorker(s.ctx, rp, local)
		s.events <- schedEvent{pi: rp.pi, stopped: stopped, err: err}
	}()
}

// nextReady returns the lowest-index pipeline that is not done, not running,
// and has all dependencies finalized. The compile order is a valid serial
// schedule, so with MaxConcurrentPipelines==1 this reproduces the pre-DAG
// serial execution order exactly.
func (s *schedule) nextReady() (int, bool) {
	ex := s.ex
	for pi := range ex.pp.Pipelines {
		if ex.done[pi] {
			continue
		}
		if _, ok := s.running[pi]; ok {
			continue
		}
		ready := true
		for _, d := range ex.pp.Pipelines[pi].Deps {
			if !ex.done[d] {
				ready = false
				break
			}
		}
		if ready {
			return pi, true
		}
	}
	return 0, false
}

// topUpTarget picks the running pipeline that benefits most from one more
// worker: the one with the most unclaimed morsels per assigned worker.
// Pipelines quiescing, finalizing, order-carrying (one worker delivers
// morsels in order; see Pipeline.Ordered), or without enough remaining
// morsels to feed another worker are skipped.
func (s *schedule) topUpTarget() *runningPipe {
	var best *runningPipe
	var bestShare float64
	pis := make([]int, 0, len(s.running))
	for pi := range s.running {
		pis = append(pis, pi)
	}
	sort.Ints(pis)
	for _, pi := range pis {
		rp := s.running[pi]
		if rp.finalizing || rp.stopped || rp.p.Ordered || rp.outstanding >= s.ex.opts.Workers {
			continue
		}
		remaining := rp.morsels - rp.cursor.Load()
		if remaining <= int64(rp.outstanding) {
			continue // every remaining morsel already has a worker to claim it
		}
		share := float64(remaining) / float64(rp.outstanding)
		if best == nil || share > bestShare {
			best, bestShare = rp, share
		}
	}
	return best
}

// assign partitions free worker slots: first launch ready pipelines (lowest
// index first, one worker each, respecting the concurrency cap), then top up
// running pipelines that still have unclaimed morsels.
func (s *schedule) assign() {
	// checkProcessRequest may have started a drain just before this call;
	// launching or topping up then would add worker locals past the
	// Options.Workers budget and delay the suspension it is honoring.
	for s.free > 0 && !s.draining {
		if s.maxConc == 0 || len(s.running) < s.maxConc {
			if pi, ok := s.nextReady(); ok {
				s.launch(&inflightPipe{pi: pi})
				continue
			}
		}
		rp := s.topUpTarget()
		if rp == nil {
			return
		}
		s.addWorker(rp, nil)
		if s.ex.tr != nil {
			s.ex.tr.Event(obs.EvPipelineScale,
				obs.A("pipeline", rp.pi), obs.A("workers", rp.outstanding))
		}
	}
}

// onWorkerExit accounts one worker leaving its pipeline; when it was the
// last, the pipeline either finalizes (morsels exhausted) or quiesces
// (stopped at a barrier).
func (s *schedule) onWorkerExit(w schedEvent) {
	rp := s.running[w.pi]
	rp.outstanding--
	s.free++
	if w.err != nil {
		s.fail(w.err)
	}
	if w.stopped {
		rp.stopped = true
	}
	if rp.outstanding > 0 {
		return
	}
	if s.firstErr != nil {
		delete(s.running, w.pi)
		return
	}
	if s.ctx.Err() != nil {
		s.draining = true
		delete(s.running, w.pi)
		return
	}
	if rp.stopped {
		delete(s.running, w.pi)
		s.onPipelineQuiesced(rp)
		return
	}
	// Morsels exhausted: combine + finalize off-loop, holding one slot.
	rp.finalizing = true
	s.free--
	go func() {
		s.events <- schedEvent{pi: rp.pi, final: true, err: s.finalize(rp)}
	}()
}

// finalize merges the pipeline's worker-local states in assignment order
// into its global state and finalizes that. Runs off the scheduler
// goroutine; the pipeline is not yet visible as done, so nothing else
// touches its global state.
func (s *schedule) finalize(rp *runningPipe) error {
	gs := s.ex.states[rp.pi]
	for _, ls := range rp.locals {
		if err := rp.p.Sink.Combine(gs, ls); err != nil {
			return err
		}
	}
	return rp.p.Sink.Finalize(gs)
}

// onPipelineQuiesced handles a pipeline whose workers all stopped at a
// morsel boundary. Under a stop-all barrier (pipeline-level suspension
// committed at a sibling's breaker) the partial progress is discarded —
// pipeline-level checkpoints carry only finalized state. Otherwise this is
// the process-level barrier and the pipeline's exact mid-flight state is
// captured.
func (s *schedule) onPipelineQuiesced(rp *runningPipe) {
	ex := s.ex
	if ex.met.runningPipes != nil {
		ex.met.runningPipes.Set(int64(len(s.running)))
	}
	if ex.stopAll.Load() {
		if ex.tr != nil {
			ex.tr.Event(obs.EvPipelineQuiesced,
				obs.A("pipeline", rp.pi), obs.A("cursor", rp.cursor.Load()),
				obs.A("captured", false))
		}
		return
	}
	s.draining = true
	s.procSuspend = true
	s.captures = append(s.captures, &inflightPipe{
		pi:      rp.pi,
		cursor:  rp.cursor.Load(),
		locals:  rp.locals,
		elapsed: rp.elapsedNow(),
	})
	if ex.tr != nil {
		ex.tr.Event(obs.EvPipelineQuiesced,
			obs.A("pipeline", rp.pi), obs.A("cursor", rp.cursor.Load()),
			obs.A("captured", true))
	}
}

// onFinalized marks a pipeline done and runs its breaker. The done bit flips
// under ex.mu after Finalize returned, so measureState and external readers
// only ever observe fully finalized global states.
func (s *schedule) onFinalized(f schedEvent) {
	ex := s.ex
	rp := s.running[f.pi]
	delete(s.running, f.pi)
	s.free++
	if ex.met.runningPipes != nil {
		ex.met.runningPipes.Set(int64(len(s.running)))
	}
	if f.err != nil {
		s.fail(f.err)
		return
	}
	dur := rp.elapsedNow()
	ex.mu.Lock()
	ex.done[f.pi] = true
	ex.pipeTimes[f.pi] = dur
	ex.mu.Unlock()
	ex.met.pipesDone.Inc()
	ex.met.pipeDur.ObserveDuration(dur)
	if ex.met.liveState != nil {
		ex.met.liveState.Set(ex.liveStateBytes())
	}
	if ex.tr != nil {
		ex.tr.Event(obs.EvPipelineFinish,
			obs.A("pipeline", f.pi), obs.A("duration", dur), obs.A("morsels", rp.morsels))
	}
	if s.draining {
		return
	}
	if f.pi == len(ex.pp.Pipelines)-1 {
		return // result pipeline: no breaker decision after the result sink
	}
	if ex.breakerSuspend(f.pi, s.start) {
		// Commit a pipeline-level suspension: barrier the remaining running
		// pipelines and discard their partial progress.
		s.draining = true
		s.pipeSuspend = true
		ex.stopAll.Store(true)
	}
}

// finish resolves the drained schedule into Run's outcome.
func (s *schedule) finish() error {
	ex := s.ex
	if ex.met.runningPipes != nil {
		ex.met.runningPipes.Set(0)
	}
	if s.firstErr != nil {
		return s.firstErr
	}
	if err := s.ctx.Err(); err != nil {
		return err
	}
	switch {
	case s.procSuspend:
		if len(s.captures) == 0 && ex.allDone() {
			// The barrier caught nothing: every pipeline finalized before it
			// could capture in-flight work. The query is complete and the
			// suspension request is moot.
			return nil
		}
		sort.Slice(s.captures, func(i, j int) bool { return s.captures[i].pi < s.captures[j].pi })
		ex.mu.Lock()
		ex.inflight = s.captures
		elapsed := ex.elapsed + time.Since(s.start)
		info := &SuspendInfo{Kind: KindProcess, Elapsed: elapsed, Pipeline: ex.firstPendingLocked()}
		if len(s.captures) > 0 {
			info.Pipeline = s.captures[0].pi
			info.Cursor = s.captures[0].cursor
		}
		for _, c := range s.captures {
			info.InFlight = append(info.InFlight, InFlightPipeline{
				Pipeline: c.pi, Cursor: c.cursor, Workers: len(c.locals), Elapsed: c.elapsed,
			})
		}
		ex.suspended = info
		ex.mu.Unlock()
		ex.met.suspends[KindProcess].Inc()
		if ex.tr != nil {
			ex.tr.Event(obs.EvSuspendAcked,
				obs.A("kind", "process"), obs.A("pipeline", info.Pipeline),
				obs.A("cursor", info.Cursor), obs.A("elapsed", info.Elapsed),
				obs.A("in_flight", len(info.InFlight)))
		}
		return ErrSuspended
	case s.pipeSuspend:
		ex.mu.Lock()
		ex.inflight = nil
		elapsed := ex.elapsed + time.Since(s.start)
		info := &SuspendInfo{Kind: KindPipeline, Pipeline: ex.firstPendingLocked(), Elapsed: elapsed}
		ex.suspended = info
		ex.mu.Unlock()
		ex.met.suspends[KindPipeline].Inc()
		if ex.tr != nil {
			ex.tr.Event(obs.EvSuspendAcked,
				obs.A("kind", "pipeline"), obs.A("pipeline", info.Pipeline),
				obs.A("elapsed", info.Elapsed))
		}
		return ErrSuspended
	}
	return nil
}
