package costmodel

import (
	"math"
	"time"
)

// Strategy enumerates the suspension/resumption strategies.
type Strategy int

// The three strategies of §II-A, plus the write-ahead-lineage strategy
// (arXiv 2403.08062): continuously log tiny lineage records during
// execution so a suspension only seals the log tail, paying a bounded
// replay on resume instead of checkpoint-sized I/O at suspend time.
const (
	StrategyRedo Strategy = iota
	StrategyPipeline
	StrategyProcess
	StrategyLineage
)

var strategyNames = [...]string{"redo", "pipeline", "process", "lineage"}

// String returns the strategy name.
func (s Strategy) String() string { return strategyNames[s] }

// Params hold the scenario the cost model evaluates against: I/O profile,
// termination probability P_T, and window [T_s, T_e] (absolute offsets from
// query start).
type Params struct {
	IO          IOProfile
	Probability float64
	WindowStart time.Duration
	WindowEnd   time.Duration
	// Lineage holds the calibrated log terms the lineage strategy's seal
	// latency is computed from.
	Lineage LineageProfile
}

// probeSteps is the number of future suspension points CostEstProc probes
// within one average pipeline time ("advancing suspension time points by
// each time unit").
const probeSteps = 10

// Input is the state observed where the decision runs (Algorithm 1 lines
// 3-7).
type Input struct {
	// Ct is the current time since query start.
	Ct time.Duration
	// AvgPipelineTime is T_sum / N_ppl over finalized pipelines.
	AvgPipelineTime time.Duration
	// PipelineStateBytes is S^ppl, the measured serialized size of the
	// pipeline-level checkpoint at this breaker.
	PipelineStateBytes int64
	// EstTotal is the estimated total execution time of the query, used to
	// convert probe instants into execution fractions for the estimator.
	EstTotal time.Duration
	// NextBreakerEta is the estimated time until the next pipeline breaker.
	// The decision runs where a resource alert quiesced the execution,
	// usually mid-pipeline: a pipeline-level suspension is then deferred
	// until the current pipeline completes, so its termination exposure
	// starts that much later (the Fig. 9 / Fig. 12 lag). Zero means the
	// execution stands at a breaker, where CostEstPpl is the paper's
	// formula exactly.
	NextBreakerEta time.Duration
	// LineageEnabled reports whether a healthy write-ahead lineage log is
	// attached to the execution. Without one the lineage strategy is
	// infeasible — there is nothing to seal or replay.
	LineageEnabled bool
	// LineageTailBytes is the unsealed tail of the lineage log: the bytes a
	// lineage suspension must still flush and fsync. This is what makes the
	// strategy near-free — the tail is a handful of records, not a
	// checkpoint image.
	LineageTailBytes int64
	// LineageStateBytes is the size of the last synced breaker-state
	// record, read back at resume.
	LineageStateBytes int64
	// LineageReplay is the time since the last breaker state was synced:
	// the work a resume replays.
	LineageReplay time.Duration
	// PipelineDiscard is the in-flight sibling work a pipeline-level
	// suspension would discard. Under DAG scheduling several pipelines run
	// concurrently, but a pipeline-level checkpoint carries only finalized
	// state: when the first breaker fires, every other in-flight pipeline is
	// quiesced and its partial progress thrown away and re-executed on
	// resume. That re-execution is a direct cost of choosing the pipeline
	// strategy, on top of its suspend/resume latencies.
	PipelineDiscard time.Duration
	// Query feeds the process-image size estimator.
	Query QueryInfo
}

// Decision is the cost model's output.
type Decision struct {
	Strategy Strategy
	// Expected costs of each strategy (infinite = infeasible).
	CostRedo, CostPipeline, CostProcess, CostLineage time.Duration
	// ProcessSuspendAt is the probed suspension instant minimizing the
	// process-level cost (valid when Strategy == StrategyProcess).
	ProcessSuspendAt time.Duration
	// ModelTime is the cost model's own running time (Table V).
	ModelTime time.Duration
}

const infCost = time.Duration(math.MaxInt64 / 4)

// overlapProbability maps the instant `done` at which a suspension (or the
// next breaker) completes to the termination probability mass it is exposed
// to (Algorithm 1 lines 10-16 / 25-31 / 39-45).
func overlapProbability(done time.Duration, p Params) float64 {
	switch {
	case done >= p.WindowEnd:
		return p.Probability
	case done >= p.WindowStart:
		span := p.WindowEnd - p.WindowStart
		if span <= 0 {
			return p.Probability
		}
		return float64(done-p.WindowStart) / float64(span) * p.Probability
	default:
		return 0
	}
}

// Select runs Algorithm 1 at a pipeline breaker and returns the strategy
// with minimum expected cost.
func Select(in Input, p Params, est SizeEstimator) Decision {
	start := time.Now()
	d := Decision{
		CostRedo:     costEstRedo(in, p),
		CostPipeline: costEstPpl(in, p),
		CostLineage:  costEstLineage(in, p),
	}
	d.CostProcess, d.ProcessSuspendAt = costEstProc(in, p, est)

	d.Strategy = StrategyRedo
	best := d.CostRedo
	if d.CostPipeline < best {
		d.Strategy, best = StrategyPipeline, d.CostPipeline
	}
	if d.CostProcess < best {
		d.Strategy, best = StrategyProcess, d.CostProcess
	}
	if d.CostLineage < best {
		d.Strategy, best = StrategyLineage, d.CostLineage
	}
	d.ModelTime = time.Since(start)
	return d
}

// costEstRedo implements CostEstRedo (lines 9-17): the expected cost of not
// suspending is the progress C_t lost when a termination lands before the
// next breaker.
func costEstRedo(in Input, p Params) time.Duration {
	nextBreaker := in.Ct + in.AvgPipelineTime
	if in.NextBreakerEta > 0 {
		nextBreaker = in.Ct + in.NextBreakerEta
	}
	var prob float64
	switch {
	case in.Ct >= p.WindowStart || nextBreaker >= p.WindowEnd:
		prob = p.Probability
	case nextBreaker >= p.WindowStart:
		span := p.WindowEnd - p.WindowStart
		if span <= 0 {
			prob = p.Probability
		} else {
			prob = float64(nextBreaker-p.WindowStart) / float64(span) * p.Probability
		}
	default:
		prob = 0
	}
	return time.Duration(prob * float64(in.Ct))
}

// costEstPpl implements CostEstPpl (lines 33-46).
func costEstPpl(in Input, p Params) time.Duration {
	ls := p.IO.SuspendLatency(in.PipelineStateBytes)
	lr := p.IO.ResumeLatency(in.PipelineStateBytes)
	// The suspension cannot start before the next breaker; mid-pipeline the
	// exposure window shifts by the breaker ETA.
	prob := overlapProbability(in.Ct+in.NextBreakerEta+ls, p)
	// Sibling pipelines quiesced at that breaker lose their in-flight work.
	return ls + lr + in.PipelineDiscard + time.Duration(prob*float64(in.Ct))
}

// costEstProc implements CostEstProc (lines 18-32): probe future suspension
// instants within one average pipeline time and take the cheapest.
func costEstProc(in Input, p Params, est SizeEstimator) (time.Duration, time.Duration) {
	span := in.AvgPipelineTime
	if span <= 0 {
		span = time.Millisecond
	}
	bestCost := infCost
	bestAt := in.Ct
	for i := 0; i <= probeSteps; i++ {
		st := in.Ct + time.Duration(int64(span)*int64(i)/probeSteps)
		frac := 0.5
		if in.EstTotal > 0 {
			frac = float64(st) / float64(in.EstTotal)
			if frac > 1 {
				frac = 1
			}
		}
		size := int64(0)
		if est != nil {
			size = est.EstimateProcessImage(in.Query, frac)
		}
		ls := p.IO.SuspendLatency(size)
		lr := p.IO.ResumeLatency(size)
		prob := overlapProbability(st+ls, p)
		cost := ls + lr + time.Duration(prob*float64(st))
		if cost < bestCost {
			bestCost, bestAt = cost, st
		}
	}
	return bestCost, bestAt
}

// costEstLineage prices the write-ahead-lineage strategy: the suspension
// itself only seals the log tail (flush + fsync of the unsealed records,
// which happens at the next morsel boundary, like a process-level barrier),
// and the resume pays a restore of the last sealed breaker-state record
// plus the bounded replay of work done since that seal. A termination
// landing before the seal completes loses only the unsealed replay window,
// never the whole progress C_t — that asymmetry is what makes lineage win
// under tight termination-warning deadlines.
func costEstLineage(in Input, p Params) time.Duration {
	if !in.LineageEnabled {
		return infCost
	}
	ls := p.Lineage.SealLatency(in.LineageTailBytes)
	lr := p.IO.ResumeLatency(in.LineageStateBytes) + in.LineageReplay
	prob := overlapProbability(in.Ct+ls, p)
	return ls + lr + time.Duration(prob*float64(in.LineageReplay))
}
