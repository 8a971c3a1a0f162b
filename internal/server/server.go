package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/blobstore"
	"github.com/riveterdb/riveter/internal/obs"
)

// instanceSeq distinguishes default instance ids of servers sharing one
// process (tests routinely run several).
var instanceSeq atomic.Uint64

// sanitizeInstanceID maps an instance name into the store's key alphabet
// and defaults empty ids to a process-unique name.
func sanitizeInstanceID(id string) string {
	if id == "" {
		return fmt.Sprintf("inst-%d-%d", os.Getpid(), instanceSeq.Add(1))
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '-'
		}
	}, id)
}

// sessionStoreKey is the store checkpoint (and claim) key for a session
// owned by the given instance.
func sessionStoreKey(instance, sid string) string {
	return "session-" + instance + "-" + sid
}

// stateDocPrefix prefixes every server state document in the store.
const stateDocPrefix = "serve-"

// stateDocName names this instance's state document.
func (s *Server) stateDocName() string { return stateDocPrefix + s.instanceID }

// ErrClosed is returned by Submit after Shutdown has begun.
var ErrClosed = errors.New("server: closed")

// Config configures a Server.
type Config struct {
	// DB is the database the server serves. Required. Open it
	// riveter.WithTracing() to get per-session traces on /traces, and
	// riveter.WithFold() to fold at admission: a submission whose plan
	// fingerprint matches a live session's rides it (no slot, no queue
	// entry) and gets its result; if the leader fails, riders re-enqueue.
	DB *riveter.DB
	// Slots is the number of queries executing concurrently (default 1;
	// each query additionally parallelizes over the DB's worker count).
	Slots int
	// QueueLimit bounds the dispatch queue; submissions beyond it are
	// rejected (0 = unbounded).
	QueueLimit int
	// MemoryBudget rejects queries whose estimated intermediate state
	// exceeds it (bytes, 0 = unlimited).
	MemoryBudget int64
	// Policy picks dispatch order and preemption (default
	// SuspensionAware{}).
	Policy Policy
	// StatePath is where graceful shutdown persists the resume manifest
	// and where startup looks for one (default
	// <DB.CheckpointDir()>/riveter-serve.state.json).
	StatePath string
	// CheckpointRetry bounds the write attempts of a persisted suspension's
	// checkpoint (default 3 attempts, 10ms base backoff capped at 200ms); at
	// Shutdown/Drain the caller's deadline bounds them too.
	CheckpointRetry riveter.RetryPolicy
	// PreemptLevel picks what a persisted suspension — an idle park, or a
	// session held at Shutdown/Drain — writes. A preemption writes nothing
	// whatever the level: it quiesces the victim at its next morsel
	// boundary and holds it in memory until it continues in place.
	// riveter.PipelineLevel (the default) suspends a running query at its
	// next pipeline breaker; riveter.ProcessLevel at its next morsel
	// boundary, persisting the process image; riveter.LineageLevel attaches
	// a write-ahead lineage log to every session, so persisting only seals
	// the log's tail and the resume replays from the last sealed record —
	// with the checkpoint ladder as fallback when the log fails.
	PreemptLevel riveter.Strategy
	// InstanceID names this server instance inside a shared blob store:
	// it prefixes store checkpoint keys, owns claim tokens, and names the
	// instance's state document. Only meaningful when the DB was opened
	// riveter.WithBlobStore; defaults to a process-unique id. Instances
	// sharing one store must use distinct ids.
	InstanceID string
	// PlanCacheSize bounds the prepared-plan LRU for SQL submissions
	// (default 64 entries; negative disables caching).
	PlanCacheSize int
	// IdleSuspend is the scale-to-zero window: a running session nobody is
	// watching (no Wait in flight and no Info/HTTP snapshot for this long)
	// is suspended to the configured store — or the checkpoint directory
	// without one — and parked: its slot frees, but it is NOT re-queued. A
	// park that persists nowhere is held and re-queued instead, and gets a
	// full window after its re-dispatch before it can park again.
	// The next touch (Info, Wait, a session HTTP request) wakes it back
	// into the dispatch queue. An instance whose sessions are all parked
	// runs zero executions and can be reclaimed for free. Zero disables.
	IdleSuspend time.Duration
}

// serverMetrics holds the serving-layer metric handles, resolved once.
type serverMetrics struct {
	queueDepth    *obs.Gauge
	wait          *obs.Histogram
	preemptions   *obs.Counter
	admit         map[Verdict]*obs.Counter
	done          *obs.Counter
	failed        *obs.Counter
	sessionDur    *obs.Histogram
	fallback      *obs.Counter
	quarantined   *obs.Counter
	abandoned     *obs.Counter
	sweepFailed   *obs.Counter
	migrated      *obs.Counter
	idleSuspended *obs.Counter
	idleWoken     *obs.Counter
	folded        *obs.Counter
	foldRiders    *obs.Gauge
}

func resolveServerMetrics(r *obs.Registry) serverMetrics {
	return serverMetrics{
		queueDepth:  r.Gauge(obs.MetricServerQueueDepth),
		wait:        r.DurationHistogram(obs.MetricServerWait),
		preemptions: r.Counter(obs.MetricServerPreemptions),
		admit: map[Verdict]*obs.Counter{
			VerdictRun:    r.Counter(obs.Kinded(obs.MetricServerAdmit, string(VerdictRun))),
			VerdictQueue:  r.Counter(obs.Kinded(obs.MetricServerAdmit, string(VerdictQueue))),
			VerdictReject: r.Counter(obs.Kinded(obs.MetricServerAdmit, string(VerdictReject))),
		},
		done:          r.Counter(obs.Kinded(obs.MetricServerSessions, "done")),
		failed:        r.Counter(obs.Kinded(obs.MetricServerSessions, "failed")),
		sessionDur:    r.DurationHistogram(obs.MetricServerSessionDuration),
		fallback:      r.Counter(obs.MetricCheckpointFallback),
		quarantined:   r.Counter(obs.MetricCheckpointQuarantined),
		abandoned:     r.Counter(obs.MetricServerPreemptAbandoned),
		sweepFailed:   r.Counter(obs.MetricCheckpointSweepFailed),
		migrated:      r.Counter(obs.MetricServerMigrated),
		idleSuspended: r.Counter(obs.MetricServerIdleSuspended),
		idleWoken:     r.Counter(obs.MetricServerIdleWoken),
		folded:        r.Counter(obs.MetricServerFolded),
		foldRiders:    r.Gauge(obs.MetricServerFoldRiders),
	}
}

// Server is the query-serving subsystem. Create with New, submit with
// Submit (or serve Handler over HTTP), stop with Shutdown.
type Server struct {
	cfg Config
	db  *riveter.DB
	adm admission
	met serverMetrics
	wg  sync.WaitGroup

	// store is non-nil when the DB carries a blob store; the server then
	// runs in store mode: preemption checkpoints and the shutdown state
	// document go to the shared store, and startup adopts claimable
	// sessions other instances left behind (cross-instance migration).
	store      *blobstore.Store
	instanceID string

	// ctx parents every execution and checkpoint retry loop; cancel fires
	// when a shutdown deadline expires, so a failing disk's backoff sleeps
	// can never outlive the shutdown budget.
	ctx    context.Context
	cancel context.CancelFunc

	// draining distinguishes a deliberate Drain (evacuate-to-store on a
	// spot termination notice) from a plain Shutdown in Health reports.
	draining atomic.Bool

	// plans caches prepared plans for SQL and TPC-H submissions (nil =
	// disabled).
	plans *planCache

	// released closes (once, via ReleaseHolds) when the server starts
	// stopping: every held HTTP session read returns its snapshot then.
	released    chan struct{}
	releaseOnce sync.Once

	mu       sync.Mutex
	cond     *sync.Cond
	sessions map[string]*Session
	byKey    map[string]*Session // client session keys -> sessions
	// folds maps plan fingerprints to the live session new identical
	// submissions fold onto (DB.FoldEnabled). Entries are removed when the
	// leader reaches a terminal state.
	folds    map[uint64]*Session
	queue    *sessionQueue
	running  map[string]*Session
	free     int
	seq      uint64
	stopping bool
	// stopped closes when the first Shutdown, Drain or Kill has finished;
	// stopErr is what that Shutdown returned. Later calls wait on it.
	stopped chan struct{}
	stopErr error
	traces  []*obs.Trace // ring of recently finished session traces
}

const traceRingCap = 64

// New builds a server and starts its scheduler. If a state manifest from a
// previous graceful shutdown exists at StatePath, the suspended and queued
// sessions it lists are re-admitted (suspended ones resume from their
// checkpoints) and the manifest is consumed.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("server: Config.DB is required")
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.Policy == nil {
		cfg.Policy = SuspensionAware{}
	}
	if cfg.StatePath == "" {
		cfg.StatePath = filepath.Join(cfg.DB.CheckpointDir(), "riveter-serve.state.json")
	}
	if cfg.CheckpointRetry.Attempts == 0 {
		cfg.CheckpointRetry = riveter.RetryPolicy{
			Attempts:  3,
			BaseDelay: 10 * time.Millisecond,
			MaxDelay:  200 * time.Millisecond,
		}
	}
	if cfg.PreemptLevel == riveter.Redo {
		cfg.PreemptLevel = riveter.PipelineLevel
	}
	s := &Server{
		cfg:        cfg,
		db:         cfg.DB,
		adm:        admission{MemoryBudget: cfg.MemoryBudget, QueueLimit: cfg.QueueLimit},
		met:        resolveServerMetrics(cfg.DB.Metrics()),
		sessions:   map[string]*Session{},
		byKey:      map[string]*Session{},
		folds:      map[uint64]*Session{},
		running:    map[string]*Session{},
		free:       cfg.Slots,
		instanceID: sanitizeInstanceID(cfg.InstanceID),
		released:   make(chan struct{}),
		stopped:    make(chan struct{}),
	}
	if cfg.PlanCacheSize >= 0 {
		s.plans = newPlanCache(cfg.PlanCacheSize, cfg.DB.Metrics())
	}
	if st, serr := cfg.DB.BlobStore(); serr == nil {
		s.store = st
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.cond = sync.NewCond(&s.mu)
	s.queue = newSessionQueue(cfg.Policy.Less)
	if err := s.restoreState(); err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go s.schedule()
	if cfg.IdleSuspend > 0 {
		s.wg.Add(1)
		go s.idleReaper()
	}
	return s, nil
}

// InstanceID returns this server's (sanitized) instance id.
func (s *Server) InstanceID() string { return s.instanceID }

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// Submit admits a query. A nil error means the session was accepted (it
// may be running or queued); rejections wrap ErrRejected, and compile
// errors come back verbatim.
func (s *Server) Submit(req Request) (*Session, error) {
	q, display, err := s.prepare(req)
	if err != nil {
		return nil, err
	}
	est := q.Estimate()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping {
		return nil, ErrClosed
	}
	if req.Key != "" {
		// Keyed submission is idempotent: the same key addresses the same
		// session, so a routing proxy retrying after a timeout (or racing
		// its own failover) can never double-run a query.
		if prev, ok := s.byKey[req.Key]; ok {
			s.touchLocked(prev)
			return prev, nil
		}
	}
	fold := s.db.FoldEnabled()
	if fold {
		if sess := s.foldOntoLocked(q, display, req); sess != nil {
			return sess, nil
		}
	}
	verdict, aerr := s.adm.Admit(est, s.queue.Len(), s.free)
	s.met.admit[verdict].Inc()
	if aerr != nil {
		return nil, aerr
	}
	sess := s.addSessionLocked("", req, q, display, est)
	if fold {
		// This session becomes the fold leader for its fingerprint: later
		// identical submissions ride it until it reaches a terminal state.
		s.folds[q.Fingerprint()] = sess
	}
	s.enqueueLocked(sess)
	return sess, nil
}

// prepare compiles a request's query and names it for display.
func (s *Server) prepare(req Request) (*riveter.Query, string, error) {
	switch {
	case req.SQL != "" && req.TPCH != 0:
		return nil, "", fmt.Errorf("server: set exactly one of SQL or TPCH")
	case req.SQL != "":
		q, err := s.cachedPlan(normalizeSQL(req.SQL), func() (*riveter.Query, error) { return s.db.Prepare(req.SQL) })
		return q, req.SQL, err
	case req.TPCH != 0:
		q, err := s.cachedPlan(tpchPlanKey(req.TPCH), func() (*riveter.Query, error) { return s.db.PrepareTPCH(req.TPCH) })
		return q, fmt.Sprintf("tpch:%d", req.TPCH), err
	default:
		return nil, "", fmt.Errorf("server: empty request")
	}
}

// addSessionLocked registers a new queued session under id ("" takes the
// next id in sequence). Every session — submitted, folded, or re-admitted
// from a manifest — is created here. The caller enqueues it.
func (s *Server) addSessionLocked(id string, req Request, q *riveter.Query, display string, est riveter.Estimate) *Session {
	if id == "" {
		s.seq++
		id = fmt.Sprintf("s-%d", s.seq)
	}
	now := time.Now()
	sess := &Session{
		id:         id,
		key:        req.Key,
		display:    display,
		sql:        req.SQL,
		tpch:       req.TPCH,
		priority:   req.Priority,
		seq:        sessionSeq(id),
		q:          q,
		est:        est,
		state:      StateQueued,
		submitted:  now,
		lastQueued: now,
		lastTouch:  now,
		done:       make(chan struct{}),
	}
	s.sessions[id] = sess
	if sess.key != "" {
		s.byKey[sess.key] = sess
	}
	return sess
}

// cachedPlan returns the plan cached under key, compiling it with prepare
// on a miss. riveter.Query is immutable, so a cached plan backs any number
// of sessions; repeated statements also come out pointer-identical, which
// keeps their fingerprints trivially equal for fold grouping.
func (s *Server) cachedPlan(key string, prepare func() (*riveter.Query, error)) (*riveter.Query, error) {
	if s.plans == nil {
		return prepare()
	}
	if q := s.plans.get(key); q != nil {
		return q, nil
	}
	q, err := prepare()
	if err != nil {
		return nil, err
	}
	s.plans.put(key, q)
	return q, nil
}

// foldOntoLocked attaches a submission as a rider on the live session
// already computing the same plan, when one exists. The rider holds no
// slot and no queue entry; it finishes when its leader does. Returns nil
// when no live leader matches.
func (s *Server) foldOntoLocked(q *riveter.Query, display string, req Request) *Session {
	fp := q.Fingerprint()
	lead, ok := s.folds[fp]
	if !ok || lead.state == StateDone || lead.state == StateFailed {
		delete(s.folds, fp)
		return nil
	}
	sess := s.addSessionLocked("", req, q, display, lead.est)
	sess.foldedInto = lead
	lead.riders = append(lead.riders, sess)
	s.met.folded.Inc()
	s.met.foldRiders.Add(1)
	return sess
}

// touchLocked records a client interaction with a session: the idle clock
// restarts, a pending idle-park becomes a plain preemption (the landing
// suspension is held in memory and re-queued, not persisted), and a parked
// session wakes into the dispatch queue. Touching a fold
// rider touches its leader too: the leader's run is the rider's.
func (s *Server) touchLocked(sess *Session) {
	sess.lastTouch = time.Now()
	sess.idlePark = false
	if sess.parked {
		sess.parked = false
		sess.lastQueued = time.Now()
		s.met.idleWoken.Inc()
		s.enqueueLocked(sess)
	}
	if sess.foldedInto != nil {
		s.touchLocked(sess.foldedInto)
	}
}

// watchedLocked reports whether a client is blocked on the session or on
// a rider folded onto it, so the idle reaper must leave it running.
func (sess *Session) watchedLocked() bool {
	n := sess.waiters
	for _, r := range sess.riders {
		n += r.waiters
	}
	return n > 0
}

// enqueueLocked adds a session to the dispatch queue and wakes the
// scheduler.
func (s *Server) enqueueLocked(sess *Session) {
	s.queue.Enqueue(sess)
	s.met.queueDepth.Set(int64(s.queue.Len()))
	s.cond.Broadcast()
}

// Info returns a session snapshot. Reading a session counts as a client
// touch: it restarts the idle clock and wakes the session if it was
// parked by scale-to-zero. Use Sessions for a passive bulk view.
func (s *Server) Info(id string) (Info, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return Info{}, false
	}
	s.touchLocked(sess)
	return sess.infoLocked(), true
}

// InfoByKey is Info addressed by client session key.
func (s *Server) InfoByKey(key string) (Info, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.byKey[key]
	if !ok {
		return Info{}, false
	}
	s.touchLocked(sess)
	return sess.infoLocked(), true
}

// Sessions snapshots every known session, newest first.
func (s *Server) Sessions() []Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Info, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess.infoLocked())
	}
	// Newest first by numeric id suffix.
	sort.Slice(out, func(i, j int) bool { return sessionSeq(out[i].ID) > sessionSeq(out[j].ID) })
	return out
}

func sessionSeq(id string) uint64 {
	n, _ := strconv.ParseUint(strings.TrimPrefix(id, "s-"), 10, 64)
	return n
}

// Wait blocks until the session reaches a terminal state and returns its
// result. Suspended and queued sessions keep Wait blocked — they are still
// destined to finish. A waited-on session never counts as idle, so the
// scale-to-zero reaper cannot park a query someone is blocked on.
func (s *Server) Wait(ctx context.Context, id string) (*riveter.Result, error) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		sess.waiters++
		s.touchLocked(sess)
	}
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("server: unknown session %s", id)
	}
	defer func() {
		s.mu.Lock()
		sess.waiters--
		s.mu.Unlock()
	}()
	select {
	case <-sess.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return sess.res, sess.err
}

// Traces returns the most recently finished sessions' traces (empty unless
// the DB was opened WithTracing), oldest first.
func (s *Server) Traces() []*obs.Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*obs.Trace(nil), s.traces...)
}

// finish moves a session to its terminal state and releases its slot.
func (s *Server) finish(sess *Session, res *riveter.Result, err error) {
	s.mu.Lock()
	if sess.state == StateRunning {
		sess.ran += time.Since(sess.started)
		delete(s.running, sess.id)
		s.free++
	}
	if sess.exec != nil {
		sess.trace = sess.exec.Trace()
		// The executor and every sink's state go with the dispatch; the
		// session keeps the result, not the run that produced it.
		sess.exec = nil
	}
	sess.res, sess.err = res, err
	sess.finished = time.Now()
	if err == nil {
		sess.state = StateDone
		s.met.done.Inc()
		s.met.sessionDur.ObserveDuration(sess.finished.Sub(sess.submitted))
	} else {
		sess.state = StateFailed
		s.met.failed.Inc()
	}
	if sess.trace != nil {
		s.traces = append(s.traces, sess.trace)
		if len(s.traces) > traceRingCap {
			s.traces = s.traces[len(s.traces)-traceRingCap:]
		}
	}
	finished := s.settleRidersLocked(sess, res, err)
	s.cond.Broadcast()
	s.mu.Unlock()
	close(sess.done)
	for _, r := range finished {
		close(r.done)
	}
}

// settleRidersLocked resolves a finished fold leader's riders: a clean
// completion tees the result to every rider; a failure privatizes them —
// each rider re-enters the dispatch queue as a standalone session, so one
// leader's bad luck never fails the queries that merely folded onto it.
// Returns the riders whose done channels the caller must close (outside
// the lock). Caller holds s.mu.
func (s *Server) settleRidersLocked(sess *Session, res *riveter.Result, err error) []*Session {
	if lead, ok := s.folds[sess.q.Fingerprint()]; ok && lead == sess {
		delete(s.folds, sess.q.Fingerprint())
	}
	riders := sess.riders
	sess.riders = nil
	if len(riders) == 0 {
		return nil
	}
	s.met.foldRiders.Add(-int64(len(riders)))
	now := time.Now()
	if err != nil {
		for _, r := range riders {
			r.foldedInto = nil
			r.state = StateQueued
			r.lastQueued = now
			s.enqueueLocked(r)
		}
		return nil
	}
	for _, r := range riders {
		r.res, r.err = res, nil
		r.state = StateDone
		r.finished = now
		r.waited += now.Sub(r.lastQueued)
		s.met.done.Inc()
		s.met.sessionDur.ObserveDuration(now.Sub(r.submitted))
	}
	return riders
}

// Shutdown gracefully stops the server: new submissions are refused,
// every running query is suspended at PreemptLevel and held, every held
// session is persisted, and the queued + suspended sessions are listed in
// the state manifest so a future Server resumes them. Blocks until
// in-flight work has quiesced and been persisted, or ctx expires: the
// persists run concurrently under ctx, a session whose persist misses the
// deadline is listed with no resume point, and Shutdown returns ctx.Err().
// A second Shutdown or Drain waits for the first and returns its error
// (or its own ctx's).
func (s *Server) Shutdown(ctx context.Context) error {
	s.ReleaseHolds()
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		select {
		case <-s.stopped:
			return s.stopErr
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.stopping = true
	for _, r := range s.running {
		if r.exec != nil && !r.suspendIssued {
			r.suspendIssued = true
			s.requestSuspend(r.exec)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	defer close(s.stopped)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// The drain budget expired. Cancel the server context: running
		// executions abort and checkpoint retry loops stop sleeping, so the
		// wait below is bounded even with a failing disk.
		s.cancel()
		<-done
	}
	s.persistHeld(ctx)
	s.cancel()
	s.stopErr = s.persistState()
	if s.stopErr == nil {
		s.stopErr = ctx.Err()
	}
	return s.stopErr
}

// Health is the instance's readiness snapshot, served on /healthz and
// consumed by the control plane's registry. Parked sessions are counted
// apart from live ones: a parked session holds no slot and runs no
// workers, so an instance at Running+Queued+Suspended == 0 is at zero
// live executions even with parked sessions waiting to be woken.
type Health struct {
	Instance  string `json:"instance"`
	Status    string `json:"status"` // "accepting" or "draining"
	Running   int    `json:"running"`
	Queued    int    `json:"queued"`
	Suspended int    `json:"suspended"`
	Parked    int    `json:"parked"`
	Sessions  int    `json:"sessions"`
}

// Health snapshots the instance's readiness. It does NOT count as a
// client touch — the control plane polls it, and polling must not keep
// idle sessions from parking.
func (s *Server) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{
		Instance: s.instanceID,
		Status:   "accepting",
		Running:  len(s.running),
		Sessions: len(s.sessions),
	}
	if s.stopping || s.draining.Load() {
		h.Status = "draining"
	}
	for _, sess := range s.sessions {
		switch {
		case sess.parked:
			h.Parked++
		case sess.state == StateQueued:
			h.Queued++
		case sess.state == StateSuspended:
			h.Suspended++
		}
	}
	return h
}

// Drain evacuates the instance: Health flips to "draining" first (so a
// routing proxy stops sending new sessions here), then a graceful
// Shutdown suspends every in-flight query and persists the state
// document for peers to adopt. The HTTP handler stays readable after a
// drain — the control plane keeps polling /healthz until the evacuation
// lands.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	return s.Shutdown(ctx)
}

// Kill hard-stops the server without persisting anything — the in-process
// analog of SIGKILL or a spot reclaim that outran its notice. Running
// executions abort, and held ones are lost with them; the checkpoints
// earlier suspensions pushed to the shared store are the only state that
// survives, exactly as after a real instance death.
func (s *Server) Kill() {
	s.ReleaseHolds()
	s.mu.Lock()
	first := !s.stopping
	s.stopping = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	for _, sess := range s.heldSessions() {
		s.finish(sess, nil, s.ctx.Err())
	}
	if first {
		close(s.stopped)
	}
}

// ReleaseHolds ends every held HTTP session read — GET /sessions/…?wait=
// and POST /query {"wait":true} — with the session's current snapshot,
// now and for every read that arrives later. Shutdown, Drain and Kill
// call it first. A process serving Handler through an http.Server must
// also register it with RegisterOnShutdown: http.Server.Shutdown waits
// for in-flight requests but never cancels their contexts, so a held
// read would otherwise stall it for its whole hold. Server.Wait is not
// affected.
func (s *Server) ReleaseHolds() {
	s.releaseOnce.Do(func() { close(s.released) })
}
