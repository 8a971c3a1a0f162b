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

import "github.com/riveterdb/riveter/internal/costmodel"

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
