package server

// Policy decides dispatch order and preemption. Implementations are
// stateless; the scheduler calls them under the server mutex.
type Policy interface {
	// Name identifies the policy in logs and metrics.
	Name() string
	// Less orders the dispatch queue: a before b.
	Less(a, b *Session) bool
	// Preempt returns the running session to suspend so the queue head can
	// run sooner, or nil to wait for a slot to free naturally. Candidates
	// with no live execution yet or with a suspension already in flight are
	// pre-filtered by the scheduler.
	Preempt(running []*Session, head *Session) *Session
}

// FIFO is the baseline: strict arrival order, no preemption. A long
// analytic query holds its slot until completion while short queries queue
// behind it — the behaviour the paper's Case 1 improves on.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// Less implements Policy: admission order.
func (FIFO) Less(a, b *Session) bool { return a.seq < b.seq }

// Preempt implements Policy: never.
func (FIFO) Preempt([]*Session, *Session) *Session { return nil }

// SuspensionAware dispatches by priority class and preempts: when a
// higher-priority session waits and every slot is busy, the lowest-priority
// running session (longest-running on ties) is quiesced at its next morsel
// boundary, held in memory and re-queued, to continue in place once the
// high-priority work has drained.
type SuspensionAware struct{}

// Name implements Policy.
func (SuspensionAware) Name() string { return "suspend" }

// Less implements Policy: priority class first, admission order within one.
func (SuspensionAware) Less(a, b *Session) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.seq < b.seq
}

// Preempt implements Policy. Among eligible victims it prefers sessions
// with no folded riders: suspending a fold leader stalls every rider
// attached to it, so a rider-free victim of the same class frees the slot
// at a fraction of the collateral cost.
func (SuspensionAware) Preempt(running []*Session, head *Session) *Session {
	pick := func(skipLeaders bool) *Session {
		var victim *Session
		for _, r := range running {
			if r.priority >= head.priority {
				continue
			}
			if skipLeaders && len(r.riders) > 0 {
				continue
			}
			if victim == nil || r.priority < victim.priority ||
				(r.priority == victim.priority && r.started.Before(victim.started)) {
				victim = r
			}
		}
		return victim
	}
	if v := pick(true); v != nil {
		return v
	}
	return pick(false)
}
