package controlplane

import (
	"time"
)

// breakerState is a per-instance circuit breaker's position.
type breakerState int

const (
	breakerClosed   breakerState = iota // normal: requests flow
	breakerOpen                         // quarantined: fast-fail until the cooldown elapses
	breakerHalfOpen                     // probing: one trial request decides open vs closed
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is the three-state circuit breaker the Registry keeps per
// instance. It is fed by *request-path* outcomes (the proxy's retry
// layer reports every attempt its caller did not abandon), not by health
// probes: a flapping instance answers /healthz happily while eating
// queries, and the breaker is exactly the hysteresis that stops the
// picker from re-routing onto it every probe interval. Health probes
// interact with the breaker in one place only: once the cooldown has
// elapsed, a successful probe counts as the half-open trial and
// re-closes it, so a recovered instance returns to service even when no
// client request happens to be willing to gamble on it.
//
// Transitions (threshold T, cooldown C):
//
//	closed     --T consecutive failures-->        open
//	open       --C elapsed, next allow/probe-->   half-open
//	half-open  --trial success-->                 closed
//	half-open  --trial failure-->                 open (cooldown restarts)
//
// MarkDead trips the breaker directly: a revived instance (probes answer
// again) still waits out the cooldown before taking traffic, which is
// what quarantines an instance flapping between alive and dead.
type breaker struct {
	state    breakerState
	fails    int  // consecutive request failures while closed
	trial    bool // a half-open trial is in flight
	openedAt time.Time
}

// effective returns the state as the picker should see it: an open
// breaker whose cooldown has elapsed is half-open (eligible for a trial)
// even before an Allow call performs the lazy transition.
func (b *breaker) effective(now time.Time, cooldown time.Duration) breakerState {
	if b.state == breakerOpen && !now.Before(b.openedAt.Add(cooldown)) {
		return breakerHalfOpen
	}
	return b.state
}

// allow reports whether a request may go to this instance, performing
// the lazy open→half-open transition. In half-open, exactly one trial is
// in flight at a time.
func (b *breaker) allow(now time.Time, cooldown time.Duration) bool {
	switch b.effective(now, cooldown) {
	case breakerOpen:
		return false
	case breakerHalfOpen:
		if b.state == breakerOpen { // lazy transition
			b.state = breakerHalfOpen
			b.trial = false
		}
		if b.trial {
			return false
		}
		b.trial = true
		return true
	default:
		return true
	}
}

// BreakerAllow reports whether the proxy may send a request to the
// instance right now: false while the instance's breaker is open (the
// rejection is counted) or while a half-open trial is already in
// flight. Unknown instances are allowed — the request will fail
// upstream and be accounted there.
func (r *Registry) BreakerAllow(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.members[id]
	if m == nil {
		return true
	}
	if !m.brk.allow(r.nowFn(), r.cfg.BreakerCooldown) {
		r.brkRejected.Inc()
		return false
	}
	return true
}

// ReportOutcome feeds one request attempt's outcome (ok = the instance
// answered, whatever the status; !ok = transport failure, timeout,
// injected 5xx, or truncated body) into the instance's breaker.
func (r *Registry) ReportOutcome(id string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.members[id]
	if m == nil {
		return
	}
	switch m.brk.state {
	case breakerClosed:
		if ok {
			m.brk.fails = 0
			return
		}
		m.brk.fails++
		if m.brk.fails >= r.cfg.BreakerThreshold {
			r.openBreakerLocked(m)
		}
	case breakerHalfOpen:
		m.brk.trial = false
		if ok {
			r.closeBreakerLocked(m)
		} else {
			r.openBreakerLocked(m)
		}
	case breakerOpen:
		// A stale outcome from before the trip; the cooldown governs now.
	}
}

// ReportAbandoned settles an attempt its caller abandoned (the caller's
// context ended mid-request) without a verdict: a closed breaker's
// failure count is untouched, and a half-open trial is freed for the
// next request instead of blocking the instance until a probe lands.
func (r *Registry) ReportAbandoned(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.members[id]; m != nil && m.brk.state == breakerHalfOpen {
		m.brk.trial = false
	}
}

// openBreakerLocked trips (or re-trips) an instance's breaker.
func (r *Registry) openBreakerLocked(m *member) {
	if m.brk.state != breakerOpen {
		r.brkOpened.Inc()
	}
	m.brk.state = breakerOpen
	m.brk.fails = 0
	m.brk.trial = false
	m.brk.openedAt = r.nowFn()
	r.updateBreakerGaugeLocked()
}

// closeBreakerLocked returns an instance to service.
func (r *Registry) closeBreakerLocked(m *member) {
	if m.brk.state == breakerClosed {
		return
	}
	m.brk = breaker{}
	r.brkClosed.Inc()
	r.updateBreakerGaugeLocked()
}

// maybeCloseBreakerOnProbeLocked is the probe-as-trial rule: a probe
// that answered closes a breaker that has matured past its cooldown
// (effective half-open). A probe answer inside the cooldown changes
// nothing — that is the quarantine.
func (r *Registry) maybeCloseBreakerOnProbeLocked(m *member) {
	if m.brk.effective(r.nowFn(), r.cfg.BreakerCooldown) == breakerHalfOpen {
		r.closeBreakerLocked(m)
	}
}

func (r *Registry) updateBreakerGaugeLocked() {
	n := 0
	for _, m := range r.members {
		if m.brk.state == breakerOpen {
			n++
		}
	}
	r.brkOpen.Set(int64(n))
}
