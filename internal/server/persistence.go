package server

// What the server persists: a held session's resume point, written by
// walking the degradation ladder when the suspension must outlive the
// process (an idle park, a shutdown — a preemption stays held in memory
// and writes nothing), and the state manifest a graceful shutdown leaves
// behind. Every resume point goes through the DB's
// persistence seam (riveter.ResumePoint and its five verbs); this file
// holds the one place that knows the three targets by name — the ladder's
// order — and the manifest's wire form of a point.

import (
	"context"
	"encoding/json"
	"sync"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/checkpoint"
	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/strategy"
)

// rung is one step of the persistence ladder: a resume point to try, and
// the strategy the ladder degrades to when it fails ("" when the next rung
// persists the same kind of image, which is not a degradation).
type rung struct {
	at         riveter.ResumePoint
	fallbackTo string
}

// ladder chooses the targets a suspension of exec is persisted to, in
// order. Under LineageLevel the log seals first: the log already holds the
// state, so the suspension costs only a tail flush, and a seal failure
// (sticky log-write error, crashed device) degrades to the checkpoint
// rungs — the executor is still quiesced with its state in memory. The
// shared store comes before the local directory; re-suspensions reuse the
// session's store key, so unchanged chunks deduplicate and each round trip
// uploads only the state delta.
func (s *Server) ladder(sess *Session, exec *riveter.Execution) []rung {
	var rungs []rung
	if lp := exec.LineagePath(); lp != "" && s.cfg.PreemptLevel == riveter.LineageLevel {
		rungs = append(rungs, rung{riveter.ResumePoint{Target: strategy.TargetLineage, Ref: lp}, "checkpoint"})
	}
	if s.store != nil {
		rungs = append(rungs, rung{at: riveter.ResumePoint{Target: strategy.TargetStore, Ref: sessionStoreKey(s.instanceID, sess.id)}})
	}
	return append(rungs, rung{at: riveter.ResumePoint{Target: strategy.TargetFile, Ref: s.db.NewCheckpointPath("session-" + sess.id)}})
}

// persistSuspension walks the ladder until a rung holds the suspended
// execution's state and returns that resume point. Each rung retries under
// the configured policy, its backoff bounded by ctx, and may drop a
// process-level image's padding (Persist counts that in
// checkpoint.fallback). When every rung fails the first error comes back
// and the session stays held.
func (s *Server) persistSuspension(ctx context.Context, sess *Session, exec *riveter.Execution) (riveter.ResumePoint, error) {
	opts := riveter.PersistOptions{Retry: s.cfg.CheckpointRetry, AllowUnpadded: true}
	var first error
	for _, r := range s.ladder(sess, exec) {
		_, err := exec.Persist(ctx, r.at, opts)
		if err == nil {
			return r.at, nil
		}
		if first == nil {
			first = err
		}
		if r.fallbackTo != "" {
			s.met.fallback.Inc()
			if tr := exec.Trace(); tr != nil {
				tr.Event(obs.EvCheckpointFallback,
					obs.A("from", string(r.at.Target)),
					obs.A("to", r.fallbackTo),
					obs.A("error", err.Error()))
			}
		}
	}
	return riveter.ResumePoint{}, first
}

// heldSessions lists the sessions holding a quiesced execution in memory.
// Called once every runner exited, when no execution is live.
func (s *Server) heldSessions() []*Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Session
	for _, sess := range s.sessions {
		if sess.exec != nil {
			out = append(out, sess)
		}
	}
	return out
}

// persistHeld writes every held session down the ladder before the state
// manifest names them: a held execution lives only in this process. The
// sessions persist concurrently, bounded by ctx and by the server's own
// context (which Kill, or Shutdown's expired deadline, cancels). A session
// whose persist fails or misses the deadline is listed with no resume
// point and reruns from scratch; the point the held execution was started
// from is discarded either way. Runs after the scheduler and every runner
// exited, so nothing else touches a held execution.
func (s *Server) persistHeld(ctx context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(s.ctx, cancel)()
	var wg sync.WaitGroup
	s.mu.Lock()
	for _, sess := range s.sessions {
		exec := sess.exec
		if exec == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			at, err := s.persistSuspension(ctx, sess, exec)
			if err != nil {
				at = riveter.ResumePoint{}
			}
			s.mu.Lock()
			from := sess.resume
			sess.exec = nil
			sess.resume = at
			s.mu.Unlock()
			if from != at {
				s.discard(from)
			}
		}()
	}
	s.mu.Unlock()
	wg.Wait()
}

// discard drops a resume point nothing will start from any more. Errors
// are dropped with it: a leftover file or manifest is swept or collected
// later, and must not fail the session that no longer needs it.
func (s *Server) discard(at riveter.ResumePoint) {
	_ = s.db.Discard(at)
}

// quarantine takes an unusable resume point out of circulation and records
// it; the session reruns from scratch, losing progress but not the query.
// The caller clears the session's reference to the point.
func (s *Server) quarantine(sess *Session, at riveter.ResumePoint, cause error) {
	s.met.quarantined.Inc()
	moved, qerr := s.db.Quarantine(at)
	if qerr != nil {
		moved = at // could not even move it aside; leave it, still rerun
	}
	if tr := sess.trace; tr != nil {
		tr.Event(obs.EvCheckpointQuarantined, moved.Attr(), obs.A("error", cause.Error()))
	}
}

// resumeWire is the flat form a resume point has always had in session
// JSON and state manifests: one field per target, at most one set.
type resumeWire struct {
	Checkpoint string `json:"checkpoint,omitempty"`
	StoreKey   string `json:"store_key,omitempty"`
	Lineage    string `json:"lineage,omitempty"`
}

func wireOf(at riveter.ResumePoint) resumeWire {
	switch at.Target {
	case strategy.TargetFile:
		return resumeWire{Checkpoint: at.Ref}
	case strategy.TargetStore:
		return resumeWire{StoreKey: at.Ref}
	case strategy.TargetLineage:
		return resumeWire{Lineage: at.Ref}
	}
	return resumeWire{}
}

// point is wireOf's inverse. A manifest naming several targets resumes
// from the one the last suspension would have written first.
func (w resumeWire) point() riveter.ResumePoint {
	switch {
	case w.Lineage != "":
		return riveter.ResumePoint{Target: strategy.TargetLineage, Ref: w.Lineage}
	case w.StoreKey != "":
		return riveter.ResumePoint{Target: strategy.TargetStore, Ref: w.StoreKey}
	case w.Checkpoint != "":
		return riveter.ResumePoint{Target: strategy.TargetFile, Ref: w.Checkpoint}
	}
	return riveter.ResumePoint{}
}

// persistedSession is one state-manifest entry.
type persistedSession struct {
	ID       string `json:"id"`
	Key      string `json:"key,omitempty"`
	SQL      string `json:"sql,omitempty"`
	TPCH     int    `json:"tpch,omitempty"`
	Priority int    `json:"priority"`
	resumeWire
}

// stateManifest is the JSON document graceful shutdown leaves behind.
type stateManifest struct {
	Sessions []persistedSession `json:"sessions"`
}

// stateFile is the local state manifest addressed as a resume point, so
// removing it and setting a torn one aside go through the seam like every
// other file the server leaves in the checkpoint directory.
func (s *Server) stateFile() riveter.ResumePoint {
	return riveter.ResumePoint{Target: strategy.TargetFile, Ref: s.cfg.StatePath}
}

// persistState writes the resume manifest (or removes a stale one when
// nothing is pending). Runs after the scheduler and all runners exited.
// In store mode the manifest is a state document in the shared store —
// visible to every instance, so a peer can adopt the sessions if this
// instance never comes back.
func (s *Server) persistState() error {
	s.mu.Lock()
	var m stateManifest
	for _, sess := range s.sessions {
		if sess.state != StateQueued && sess.state != StateSuspended {
			continue
		}
		m.Sessions = append(m.Sessions, persistedSession{
			ID:         sess.id,
			Key:        sess.key,
			SQL:        sess.sql,
			TPCH:       sess.tpch,
			Priority:   int(sess.priority),
			resumeWire: wireOf(sess.resume),
		})
	}
	s.mu.Unlock()
	if s.store != nil {
		if len(m.Sessions) == 0 {
			return s.store.DeleteDoc(s.stateDocName())
		}
		return s.store.PutDoc(s.stateDocName(), m)
	}
	if len(m.Sessions) == 0 {
		s.discard(s.stateFile())
		return nil
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	// Published like the checkpoints it points at: never torn at its path.
	return faultfs.WriteAtomic(s.db.FS(), s.cfg.StatePath+checkpoint.TempSuffix, s.cfg.StatePath, data)
}
