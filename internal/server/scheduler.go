package server

// The scheduler: the dispatch loop, the scale-to-zero reaper, and the
// runner that carries one session through a dispatch — start or resume,
// wait, and route the outcome.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/obs"
)

// schedule is the scheduler loop: dispatch queued sessions into free
// slots, and when none are free ask the policy for a preemption victim.
func (s *Server) schedule() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopping {
			return
		}
		progressed := false
		for s.free > 0 {
			sess := s.queue.Dequeue()
			if sess == nil {
				break
			}
			s.dispatchLocked(sess)
			progressed = true
		}
		if s.free == 0 {
			// Suspend at most one running query per waiting session: a lone
			// short query never needs two slots cleared for it.
			if head := s.queue.Peek(); head != nil && s.pendingSuspendsLocked() < s.queue.Len() {
				if victim := s.preemptCandidateLocked(head); victim != nil {
					victim.suspendRequested = true
					// Suspend is a single atomic store on the executor;
					// safe (and cheap) under the server mutex.
					s.requestSuspend(victim.exec)
					progressed = true
				}
			}
		}
		if !progressed {
			s.cond.Wait()
		}
	}
}

// idleReaper is the scale-to-zero loop: every quarter window it scans the
// running set for sessions nobody is watching — no Wait in flight, no
// touch for at least IdleSuspend — and requests their suspension with the
// idle-park flag set, so the landing suspension parks the session instead
// of re-queueing it. Parked sessions hold no slot and run no workers; an
// instance whose sessions are all parked is at zero live executions.
func (s *Server) idleReaper() {
	defer s.wg.Done()
	tick := s.cfg.IdleSuspend / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
		}
		s.mu.Lock()
		if s.stopping {
			s.mu.Unlock()
			return
		}
		now := time.Now()
		for _, r := range s.running {
			if r.exec == nil || r.suspendRequested || r.waiters > 0 {
				continue
			}
			// The idle clock starts at the later of dispatch and last touch:
			// a freshly dispatched (or just-woken) query always gets a full
			// window of progress before it can park again.
			idleSince := r.lastTouch
			if r.started.After(idleSince) {
				idleSince = r.started
			}
			if now.Sub(idleSince) < s.cfg.IdleSuspend {
				continue
			}
			r.idlePark = true
			r.suspendRequested = true
			s.requestSuspend(r.exec)
		}
		s.mu.Unlock()
	}
}

// requestSuspend asks an execution to quiesce at the configured preemption
// level. A lineage-level request needs a lineage log attached; executions
// without one (resumed in place after an abandoned preemption, or resumed
// from a fallback checkpoint) quiesce process-kind instead, so the
// checkpoint ladder can still persist them.
func (s *Server) requestSuspend(exec *riveter.Execution) {
	if err := exec.Suspend(s.cfg.PreemptLevel); err != nil && s.cfg.PreemptLevel == riveter.LineageLevel {
		_ = exec.Suspend(riveter.ProcessLevel)
	}
}

// pendingSuspendsLocked counts issued, not-yet-acknowledged preemptions.
func (s *Server) pendingSuspendsLocked() int {
	n := 0
	for _, r := range s.running {
		if r.suspendRequested {
			n++
		}
	}
	return n
}

// preemptCandidateLocked filters the running set down to preemptable
// executions and asks the policy to choose.
func (s *Server) preemptCandidateLocked(head *Session) *Session {
	now := time.Now()
	cands := make([]*Session, 0, len(s.running))
	for _, r := range s.running {
		if r.exec == nil || r.suspendRequested || now.Before(r.noPreemptUntil) {
			continue
		}
		cands = append(cands, r)
	}
	if len(cands) == 0 {
		return nil
	}
	return s.cfg.Policy.Preempt(cands, head)
}

// dispatchLocked moves a session from the queue into a slot and launches
// its runner.
func (s *Server) dispatchLocked(sess *Session) {
	now := time.Now()
	wait := now.Sub(sess.lastQueued)
	sess.waited += wait
	s.met.wait.ObserveDuration(wait)
	s.met.queueDepth.Set(int64(s.queue.Len()))
	sess.state = StateRunning
	sess.started = now
	sess.suspendRequested = false
	sess.exec = nil
	s.running[sess.id] = sess
	s.free--
	s.wg.Add(1)
	go s.run(sess, sess.resume)
}

// startFresh launches a session from scratch. Under lineage-level
// preemption the execution gets a write-ahead lineage log attached, so a
// later preemption only seals the log's tail; otherwise it is a plain
// start.
func (s *Server) startFresh(ctx context.Context, sess *Session) (*riveter.Execution, error) {
	if s.cfg.PreemptLevel == riveter.LineageLevel {
		exec, err := sess.q.StartWithLineage(ctx, riveter.LineageConfig{})
		if err == nil {
			return exec, nil
		}
		// A log that cannot even be created (dead device) must not fail
		// the query: run without one. Preemptions of this execution
		// quiesce process-kind and take the checkpoint ladder.
		s.met.fallback.Inc()
	}
	return sess.q.Start(ctx)
}

// start launches one dispatch of a session: from its resume point when it
// has one, else from scratch. An unusable resume point — torn, unreadable,
// written for another plan — is quarantined, not fatal: the session reruns
// from scratch, losing progress but not the query. Returns the resume
// point the execution actually consumed.
func (s *Server) start(ctx context.Context, sess *Session, from riveter.ResumePoint) (*riveter.Execution, riveter.ResumePoint, error) {
	if !from.IsZero() {
		exec, err := sess.q.StartFrom(ctx, from, nil)
		if err == nil {
			return exec, from, nil
		}
		s.quarantine(sess, from, err)
		s.mu.Lock()
		if sess.resume == from {
			sess.resume = riveter.ResumePoint{}
		}
		s.mu.Unlock()
	}
	exec, err := s.startFresh(ctx, sess)
	return exec, riveter.ResumePoint{}, err
}

// run executes one dispatch of a session: start or resume, wait, and route
// the outcome — completion, preemption (persist, then re-queue), or
// failure. A suspension that cannot be persisted walks the degradation
// ladder (persistSuspension) and, when every rung fails, resumes in place
// instead of failing the session: the victim's work is never the casualty
// of a broken device.
func (s *Server) run(sess *Session, from riveter.ResumePoint) {
	defer s.wg.Done()
	ctx := s.ctx
	exec, from, err := s.start(ctx, sess, from)
	if err != nil {
		s.finish(sess, nil, err)
		return
	}
	s.mu.Lock()
	sess.exec = exec
	// A preemption decision may already be waiting on this execution.
	s.cond.Broadcast()
	s.mu.Unlock()

	for {
		werr := exec.Wait()
		switch {
		case werr == nil:
			res, rerr := exec.Result()
			// Finished work needs no recovery state: the resume point this
			// dispatch consumed and the lineage log the execution wrote
			// while it ran both go.
			s.discard(from)
			if lp := exec.LineagePath(); lp != "" {
				_ = s.db.RemoveLineage(lp)
			}
			s.mu.Lock()
			sess.resume = riveter.ResumePoint{}
			s.mu.Unlock()
			s.finish(sess, res, rerr)
			return
		case errors.Is(werr, riveter.ErrSuspended):
			at, perr := s.persistSuspension(sess, exec)
			if perr != nil {
				// The whole ladder failed on disk; resume the victim in place.
				// Its work is preserved and the preemption is abandoned.
				fresh, rerr := exec.ResumeInPlace(ctx)
				if rerr != nil {
					s.finish(sess, nil, fmt.Errorf("server: abandon preemption: %w", rerr))
					return
				}
				s.met.abandoned.Inc()
				if tr := exec.Trace(); tr != nil {
					tr.Event(obs.EvPreemptAbandoned,
						obs.A("query", sess.display),
						obs.A("error", perr.Error()))
				}
				exec = fresh
				s.mu.Lock()
				sess.exec = fresh
				sess.abandoned++
				sess.suspendRequested = false
				sess.noPreemptUntil = time.Now().Add(s.cfg.AbandonCooldown)
				s.cond.Broadcast()
				s.mu.Unlock()
				continue
			}
			// The new point supersedes the one this dispatch consumed (an
			// adopted session, say, re-suspends under this instance's key;
			// the foreign original is no longer the resume point).
			if from != at {
				s.discard(from)
			}
			s.mu.Lock()
			sess.ran += time.Since(sess.started)
			sess.trace = exec.Trace()
			sess.exec = nil // persisted: the resume point is the session now
			sess.resume = at
			sess.state = StateSuspended
			sess.lastQueued = time.Now()
			delete(s.running, sess.id)
			s.free++
			s.parkOrEnqueueLocked(sess)
			s.mu.Unlock()
			return
		default:
			s.finish(sess, nil, werr)
			return
		}
	}
}

// parkOrEnqueueLocked routes a just-suspended session: an idle-park
// suspension parks it (counted as server.idle_suspended, woken by the
// next touch), anything else is a preemption round trip that re-enters
// the dispatch queue.
func (s *Server) parkOrEnqueueLocked(sess *Session) {
	if sess.idlePark {
		sess.idlePark = false
		sess.parked = true
		s.met.idleSuspended.Inc()
		// A park freed a slot; queued work (if any) can dispatch into it.
		s.cond.Broadcast()
		return
	}
	sess.preemptions++
	s.met.preemptions.Inc()
	s.enqueueLocked(sess)
}
