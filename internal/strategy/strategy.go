// Package strategy implements the mechanics of the suspension and
// resumption strategies (§III-A, §III-B): triggering a suspension on a
// running executor, persisting the captured state to a resume point and
// restoring it into a fresh executor (seam.go: one lifecycle over a
// checkpoint file, a blob-store key, or a sealed lineage log, with the
// CRIU-style image padding for the process-level strategy), and — for the
// write-ahead lineage strategy — maintaining the morsel-granular log that
// makes a suspension a near-free tail flush (lineage.go).
//
// Policy — deciding if/when/how to suspend — lives in the root package's
// adaptive controller (adaptive.go), which drives this package with the
// cost model's decisions.
package strategy

import (
	"context"
	"time"

	"github.com/riveterdb/riveter/internal/costmodel"
	"github.com/riveterdb/riveter/internal/engine"
)

// Kind aliases the cost model's strategy enum so decisions flow through
// without translation.
type Kind = costmodel.Strategy

// The four strategies.
const (
	Redo     = costmodel.StrategyRedo
	Pipeline = costmodel.StrategyPipeline
	Process  = costmodel.StrategyProcess
	Lineage  = costmodel.StrategyLineage
)

// KindName renders a checkpoint manifest kind for a strategy.
func KindName(k Kind) string {
	switch k {
	case Pipeline:
		return "pipeline"
	case Process:
		return "process"
	case Lineage:
		return "lineage"
	default:
		return "redo"
	}
}

// Request triggers a suspension of the given kind on a running execution
// and returns the request instant. Redo terminates via cancel; the other
// kinds set the executor's suspension flag and take effect at the next
// breaker (pipeline) or morsel boundary (process).
func Request(ex *engine.Executor, k Kind, cancel context.CancelFunc) time.Time {
	now := time.Now()
	switch k {
	case Redo:
		if cancel != nil {
			cancel()
		}
	case Pipeline:
		ex.RequestSuspend(engine.KindPipeline)
	case Process:
		ex.RequestSuspend(engine.KindProcess)
	case Lineage:
		// Lineage needs no state capture of its own — the write-ahead log
		// already has it. The execution only has to quiesce at morsel
		// boundaries so the final seal record carries exact cursors.
		ex.RequestSuspend(engine.KindProcess)
	}
	return now
}
