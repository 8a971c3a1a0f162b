// Package server is Riveter's query-serving subsystem: a session and queue
// manager with priority classes and a bounded worker-slot pool, an
// admission controller priced by the cost model, and a preemptive
// scheduler that uses suspension as its preemption mechanism — the
// paper's Case 1 (heterogeneous workloads) turned from a
// per-query API the caller drives by hand into serving-layer policy.
//
// A Server owns a riveter.DB. Clients submit queries tagged with a
// priority class; admission decides run / queue / reject from the cost
// model's pre-execution estimates and a memory budget; the scheduler
// dispatches queued sessions into a fixed number of worker slots. Under
// the suspension-aware policy, short high-priority arrivals preempt a
// long-running low-priority query: the scheduler asks it to quiesce at its
// next morsel boundary, frees the slot at once, and holds the quiesced
// execution in memory — nothing is written — until the queue drains and
// the long query continues in place, as many round trips as the workload
// demands. Every suspension lands held that way; persisting is a separate
// step, down a degradation ladder of resume points (persistence.go), taken
// in two places only: an idle park persists before its slot frees, and
// graceful shutdown suspends every in-flight query, persists every held
// one within its deadline and writes a state manifest; a fresh Server
// pointed at the same manifest resumes them.
package server

import (
	"fmt"
	"strconv"
	"time"

	"github.com/riveterdb/riveter"
	"github.com/riveterdb/riveter/internal/obs"
)

// Priority orders sessions for dispatch: higher runs sooner, and under the
// suspension-aware policy a higher class preempts a running lower class.
type Priority int

// The serving priority classes. The numeric gaps leave room for custom
// intermediate classes.
const (
	// Batch is the default class for long analytic work.
	Batch Priority = 0
	// Normal is the default class.
	Normal Priority = 10
	// Interactive is for latency-sensitive short queries.
	Interactive Priority = 20
)

// String renders the canonical class names; other values render numerically.
func (p Priority) String() string {
	switch p {
	case Batch:
		return "batch"
	case Normal:
		return "normal"
	case Interactive:
		return "interactive"
	default:
		return strconv.Itoa(int(p))
	}
}

// ParsePriority accepts a class name ("batch", "normal", "interactive") or
// a bare integer.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "normal":
		return Normal, nil
	case "batch", "low":
		return Batch, nil
	case "interactive", "high":
		return Interactive, nil
	}
	if n, err := strconv.Atoi(s); err == nil {
		return Priority(n), nil
	}
	return 0, fmt.Errorf("server: unknown priority %q", s)
}

// State is a session's life-cycle position.
type State string

// Session states. Queued and Suspended sessions sit in the dispatch queue
// (Suspended additionally holds a quiesced execution or a resume point to
// continue from); Running occupies a worker slot; Done and Failed are
// terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSuspended State = "suspended"
	StateDone      State = "done"
	StateFailed    State = "failed"
)

// Request describes one query submission. Exactly one of SQL or TPCH must
// be set.
type Request struct {
	// SQL is an ad-hoc statement in the supported subset.
	SQL string
	// TPCH is a TPC-H query id 1..22.
	TPCH int
	// Priority is the session's class (zero value = Batch; use Normal or
	// Interactive for foreground work).
	Priority Priority
	// Key is an optional client-chosen session key. Keys make submission
	// idempotent (re-submitting an existing key returns the existing
	// session instead of a new one) and survive migration: an instance
	// adopting this session from the shared store keeps the key even when
	// the local id collides, so a routing proxy can address the session
	// wherever it lands. Keys share the id namespace of lookups and must
	// be unique per store.
	Key string
}

// Session is one submitted query moving through the serving life cycle.
// All mutable fields are guarded by the owning Server's mutex; read them
// through Server.Info / Server.Wait or the snapshot methods.
type Session struct {
	id       string
	display  string // "tpch:21" or the SQL text
	key      string // client session key ("" = none); stable across migration
	sql      string
	tpch     int
	priority Priority
	seq      uint64 // admission order, the FIFO key

	q   *riveter.Query
	est riveter.Estimate

	state       State
	submitted   time.Time
	lastQueued  time.Time // start of the current wait (submission or requeue)
	started     time.Time // start of the current dispatch
	finished    time.Time
	waited      time.Duration // accumulated queue time
	ran         time.Duration // accumulated slot time
	preemptions int
	abandoned   int                 // idle parks held and re-queued because no resume point would persist
	resume      riveter.ResumePoint // where the next dispatch starts from (zero = from scratch)
	exec        *riveter.Execution  // in memory: live while Running, quiesced (held) while Suspended, else nil
	res         *riveter.Result
	err         error
	trace       *obs.Trace

	// suspendIssued marks an issued, not-yet-acknowledged preemption so
	// the scheduler never double-suspends one execution.
	suspendIssued bool

	// Whole-plan folding linkage (DB.FoldEnabled). foldedInto points a rider
	// at the leader whose result it receives; riders lists a leader's
	// attached riders. A rider holds no slot and no queue entry; if its
	// leader fails, the rider privatizes (foldedInto cleared, re-enqueued).
	foldedInto *Session
	riders     []*Session

	// Scale-to-zero bookkeeping. lastTouch is the last client interaction
	// (submit, Info, Wait, HTTP snapshot); waiters counts in-flight Wait
	// calls and held HTTP reads, which keep a session from counting as
	// idle. idlePark marks a suspension requested by the idle reaper: when
	// it lands, the session parks (suspended, NOT re-queued) instead of
	// re-entering the dispatch queue, and the next touch wakes it.
	lastTouch time.Time
	waiters   int
	idlePark  bool
	parked    bool

	done chan struct{} // closed on Done/Failed
}

// Info is a point-in-time, lock-free snapshot of a session.
type Info struct {
	ID          string        `json:"id"`
	Key         string        `json:"key,omitempty"`
	Query       string        `json:"query"`
	Priority    string        `json:"priority"`
	State       State         `json:"state"`
	Parked      bool          `json:"parked,omitempty"`
	Preemptions int           `json:"preemptions"`
	Abandoned   int           `json:"abandoned,omitempty"` // idle parks held and re-queued: no resume point would persist
	Waited      time.Duration `json:"waited_ns"`
	Ran         time.Duration `json:"ran_ns"`
	resumeWire
	// FoldedInto names the leader session this rider is folded onto;
	// Riders counts the riders folded onto this session.
	FoldedInto string `json:"folded_into,omitempty"`
	Riders     int    `json:"riders,omitempty"`
	NumRows    int64  `json:"num_rows,omitempty"`
	Error      string `json:"error,omitempty"`
	// EstInputBytes and EstStateBytes echo the admission inputs.
	EstInputBytes int64 `json:"est_input_bytes"`
	EstStateBytes int64 `json:"est_state_bytes"`
}

// infoLocked snapshots the session; caller holds the server mutex.
func (s *Session) infoLocked() Info {
	in := Info{
		ID:            s.id,
		Key:           s.key,
		Query:         s.display,
		Priority:      s.priority.String(),
		State:         s.state,
		Parked:        s.parked,
		Preemptions:   s.preemptions,
		Abandoned:     s.abandoned,
		Waited:        s.waited,
		Ran:           s.ran,
		resumeWire:    wireOf(s.resume),
		EstInputBytes: s.est.InputBytes,
		EstStateBytes: s.est.StateBytes,
		Riders:        len(s.riders),
	}
	if s.foldedInto != nil {
		in.FoldedInto = s.foldedInto.id
	}
	switch s.state {
	case StateQueued, StateSuspended:
		in.Waited += time.Since(s.lastQueued)
	case StateRunning:
		in.Ran += time.Since(s.started)
	}
	if s.res != nil {
		in.NumRows = s.res.NumRows()
	}
	if s.err != nil {
		in.Error = s.err.Error()
	}
	return in
}
