package server

// The scheduler: the dispatch loop, the scale-to-zero reaper, and the
// runner that carries one session through a dispatch — start, resume or
// continue in place, wait, and route the outcome.

import (
	"context"
	"errors"
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
					victim.suspendIssued = true
					// A preemption is held in memory, so a quiesce is all it
					// needs: the next morsel boundary, whatever PreemptLevel
					// says. Suspend is a single atomic store on the executor;
					// safe (and cheap) under the server mutex.
					_ = victim.exec.Suspend(riveter.ProcessLevel)
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
// running set for sessions nobody is watching — no Wait in flight on them
// or their fold riders, no touch and no dispatch for at least IdleSuspend —
// and requests their suspension with the idle-park flag set, so the landing
// suspension is persisted and parks the session instead of re-queueing it.
// Parked sessions hold no slot and run no workers; an instance whose
// sessions are all parked is at zero live executions.
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
			if r.exec == nil || r.suspendIssued || r.watchedLocked() {
				continue
			}
			// The idle clock starts at the later of dispatch and last touch:
			// a freshly dispatched (or just-woken) query always gets a full
			// window of progress before it can park again — so a park that
			// failed to persist and was re-queued cannot spin the reaper
			// against a broken device.
			idleSince := r.lastTouch
			if r.started.After(idleSince) {
				idleSince = r.started
			}
			if now.Sub(idleSince) < s.cfg.IdleSuspend {
				continue
			}
			r.idlePark = true
			r.suspendIssued = true
			s.requestSuspend(r.exec)
		}
		s.mu.Unlock()
	}
}

// requestSuspend asks an execution to suspend at the configured
// PreemptLevel, for a suspension that will be persisted: an idle park or a
// shutdown. A lineage-level request needs a lineage log attached;
// executions without one (resumed from a fallback checkpoint, or started
// when no log could be created) quiesce process-kind instead, so the
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
		if r.suspendIssued {
			n++
		}
	}
	return n
}

// preemptCandidateLocked filters the running set down to preemptable
// executions and asks the policy to choose.
func (s *Server) preemptCandidateLocked(head *Session) *Session {
	cands := make([]*Session, 0, len(s.running))
	for _, r := range s.running {
		if r.exec == nil || r.suspendIssued {
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
	sess.suspendIssued = false
	// The runner sets exec again once the execution is live, so nothing
	// asks a held execution to suspend before it has continued.
	held := sess.exec
	sess.exec = nil
	s.running[sess.id] = sess
	s.free--
	s.wg.Add(1)
	go s.run(sess, sess.resume, held)
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

// start launches one dispatch of a session: the held execution of a
// preempted session continues in place; otherwise the session starts from
// its resume point when it has one, else from scratch. An unusable resume
// point — torn, unreadable, written for another plan — is quarantined, not
// fatal: the session reruns from scratch, losing progress but not the
// query. Returns the resume point the execution consumed (a held
// execution's is the one its first dispatch started from).
func (s *Server) start(ctx context.Context, sess *Session, from riveter.ResumePoint, held *riveter.Execution) (*riveter.Execution, riveter.ResumePoint, error) {
	if held != nil {
		exec, err := held.ResumeInPlace(ctx)
		return exec, from, err
	}
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

// run executes one dispatch of a session: start, resume or continue in
// place, wait, and route the outcome — completion, suspension, or failure.
// Every suspension lands held: the slot frees and the quiesced execution
// stays on the session, nothing written, for the next dispatch to continue
// in place. Only an idle park persists first, down the degradation ladder
// (persistSuspension) before its slot frees, so a parked instance is
// kill-safe. A suspension landing after Shutdown/Drain began is held like
// a preemption, and Shutdown persists it (persistHeld).
func (s *Server) run(sess *Session, from riveter.ResumePoint, held *riveter.Execution) {
	defer s.wg.Done()
	exec, from, err := s.start(s.ctx, sess, from, held)
	if err != nil {
		s.finish(sess, nil, err)
		return
	}
	s.mu.Lock()
	sess.exec = exec
	if s.stopping && !sess.suspendIssued {
		// Dispatched just before Shutdown asked the running set to suspend.
		sess.suspendIssued = true
		s.requestSuspend(exec)
	}
	// A preemption decision may already be waiting on this execution.
	s.cond.Broadcast()
	s.mu.Unlock()

	werr := exec.Wait()
	switch {
	case werr == nil:
		res, rerr := exec.Result()
		// Finished work needs no recovery state: the resume point this
		// dispatch consumed and the lineage log the execution wrote while it
		// ran both go.
		s.discard(from)
		if lp := exec.LineagePath(); lp != "" {
			_ = s.db.RemoveLineage(lp)
		}
		s.mu.Lock()
		sess.resume = riveter.ResumePoint{}
		s.mu.Unlock()
		s.finish(sess, res, rerr)
	case errors.Is(werr, riveter.ErrSuspended):
		s.mu.Lock()
		park := sess.idlePark && !s.stopping
		s.mu.Unlock()
		var at riveter.ResumePoint
		var perr error
		if park {
			// The new point supersedes the one this dispatch consumed (an
			// adopted session, say, re-suspends under this instance's key;
			// the foreign original is no longer the resume point).
			if at, perr = s.persistSuspension(s.ctx, sess, exec); perr == nil && from != at {
				s.discard(from)
			}
		}
		s.mu.Lock()
		s.suspendedLocked(sess, at, perr)
		s.mu.Unlock()
	default:
		// A failed run leaves nothing to resume from its own log.
		if lp := exec.LineagePath(); lp != "" {
			_ = s.db.RemoveLineage(lp)
		}
		s.finish(sess, nil, werr)
	}
}

// suspendedLocked frees the slot of a session whose execution suspended
// and routes the session. The quiesced execution stays on it, held,
// unless the suspension was persisted to at, which is the session's
// resume point from then on. A persisted idle park parks the session
// (server.idle_suspended; the next touch wakes it). A park that persisted
// nowhere (perr) is held and re-queued, as a touch would have it: it
// counts as abandoned, not as a preemption, and its re-dispatch gets a
// full IdleSuspend window before the reaper asks again. Anything else is a
// preemption round trip back into the dispatch queue.
func (s *Server) suspendedLocked(sess *Session, at riveter.ResumePoint, perr error) {
	sess.ran += time.Since(sess.started)
	sess.trace = sess.exec.Trace()
	if !at.IsZero() {
		sess.exec = nil
		sess.resume = at
	}
	sess.state = StateSuspended
	sess.lastQueued = time.Now()
	delete(s.running, sess.id)
	s.free++
	park := sess.idlePark && !at.IsZero()
	sess.idlePark = false
	switch {
	case park:
		sess.parked = true
		s.met.idleSuspended.Inc()
		// A park freed a slot; queued work (if any) can dispatch into it.
		s.cond.Broadcast()
		return
	case perr != nil:
		sess.abandoned++
		s.met.abandoned.Inc()
		if tr := sess.trace; tr != nil {
			tr.Event(obs.EvPreemptAbandoned, obs.A("query", sess.display), obs.A("error", perr.Error()))
		}
	default:
		sess.preemptions++
		s.met.preemptions.Inc()
	}
	s.enqueueLocked(sess)
}
