package riveter

// Public surface of the write-ahead lineage suspension strategy: start a
// query with a lineage log attached. Suspending it (Suspend(LineageLevel),
// then Persist to the log's lineage ResumePoint) only seals the log — only
// the unsealed tail is flushed — and StartFrom replays from the last
// sealed record. See internal/strategy/lineage.go for the log format.

import "context"

// StartWithLineage launches the query asynchronously with a write-ahead
// lineage log attached: every pipeline breaker appends and seals the
// serialized pipeline-kind state.
// A later Suspend(LineageLevel) + Persist to the lineage point then costs
// only a tail flush, regardless of how much state the query built up.
//
// Log-write failures never fail the query — they surface at Persist, where
// the caller degrades to a file or store point (the executor is still
// quiesced with its state in memory).
func (q *Query) StartWithLineage(ctx context.Context, cfg LineageConfig) (*Execution, error) {
	e, err := q.start(&cfg)
	if err != nil {
		return nil, err
	}
	return e.launch(ctx), nil
}

// LineagePath returns the execution's lineage-log path ("" when the
// execution has no lineage log).
func (e *Execution) LineagePath() string { return e.lin.Path() }
