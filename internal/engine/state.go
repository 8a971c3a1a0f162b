package engine

import (
	"fmt"
	"io"
	"time"

	"github.com/riveterdb/riveter/internal/vector"
)

// Executor state serialization: the payload of both checkpoint flavors.
//
// Pipeline-level checkpoints persist the finalized global sink states that
// pending pipelines still consume, plus the pipeline progress bitmap.
// Process-level checkpoints additionally persist, for every pipeline the DAG
// scheduler had in flight, its morsel cursor and each of its workers' local
// sink states — the full execution context, as a CRIU dump would.
//
// The format is at version 6: an in-flight set of pipelines (since version
// 2), whose aggregate locals hold only the arrays each function reads
// (FlatAggSink.saveTable, since version 3), whose join builds store each
// column once, only the columns the probe reads, behind their row count
// (HashJoinBuildSink, since version 4), whose breakers hold only the
// columns something above them reads (plan.Prune, since version 5: the
// state of a plan has fewer columns than version 4 wrote for it), and
// whose aggregates fed by a join hold only the groups a finished build
// lets through, in pipelines ordered for that (predicate transfer, since
// version 6: the bytes are those of version 5, but a version 5 image of
// such a plan holds other groups, and pipeline numbers that name others).
// There is one reader; the bytes of versions 1 (the pre-DAG
// single-in-flight layout), 2 (every aggregate's sums and count plus boxed
// MIN/MAX and DISTINCT values), 3 (join builds of keys followed by every
// build column), 4 (breakers of every column the plan as written carries)
// and 5 (aggregates of every group) are refused.

const (
	stateMagic   = "RVST"
	stateVersion = 6
)

// StateFormatVersion is the executor state format version written by
// SaveState; checkpoint manifests record it for forensics and Verify walks.
const StateFormatVersion = stateVersion

// SaveState serializes the executor's suspension state. Must be called only
// after Run returned ErrSuspended (or before Run for a cold checkpoint).
func (ex *Executor) SaveState(enc *vector.Encoder) error {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	kind := KindPipeline
	if ex.suspended != nil {
		kind = ex.suspended.Kind
	}
	return ex.saveStateLocked(enc, kind, ex.elapsed)
}

func (ex *Executor) saveStateLocked(enc *vector.Encoder, kind SuspendKind, elapsed time.Duration) error {
	enc.String(stateMagic)
	enc.Uvarint(stateVersion)
	enc.Uvarint(uint64(kind))
	enc.Uvarint(ex.pp.Fingerprint)
	enc.Uvarint(uint64(ex.opts.Workers))
	enc.Varint(int64(elapsed))
	enc.Varint(ex.acct.ProcessedBytes())
	enc.Uvarint(uint64(len(ex.pp.Pipelines)))
	for i := range ex.pp.Pipelines {
		enc.Bool(ex.done[i])
		if ex.done[i] {
			enc.Varint(int64(ex.pipeTimes[i]))
		}
	}

	live := ex.livePipes()
	enc.Uvarint(uint64(len(live)))
	for _, pi := range live {
		enc.Uvarint(uint64(pi))
		if err := ex.pp.Pipelines[pi].Sink.SaveGlobal(ex.states[pi], enc); err != nil {
			return err
		}
	}

	if kind == KindProcess {
		enc.Uvarint(uint64(len(ex.inflight)))
		for _, c := range ex.inflight {
			enc.Uvarint(uint64(c.pi))
			enc.Uvarint(uint64(c.cursor))
			enc.Varint(int64(c.elapsed))
			enc.Uvarint(uint64(len(c.locals)))
			sink := ex.pp.Pipelines[c.pi].Sink
			for _, ls := range c.locals {
				if err := sink.SaveLocal(ls, enc); err != nil {
					return err
				}
			}
		}
	}
	return enc.Err()
}

// savePipelineStateAt serializes a pipeline-kind snapshot with the
// executor's accumulated elapsed time overridden — breaker snapshots are
// taken mid-Run, where ex.elapsed still holds only the time of completed
// Run calls (the current run's share is folded in when Run returns).
func (ex *Executor) savePipelineStateAt(enc *vector.Encoder, elapsed time.Duration) error {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if elapsed <= 0 {
		elapsed = ex.elapsed
	}
	return ex.saveStateLocked(enc, KindPipeline, elapsed)
}

// livePipes returns done pipelines whose sink state is still consumed by a
// pipeline that has not finished (including in-flight ones).
func (ex *Executor) livePipes() []int {
	needed := map[int]bool{}
	for qi := range ex.pp.Pipelines {
		if ex.done[qi] {
			continue
		}
		for _, dep := range ex.pp.Pipelines[qi].Deps {
			if ex.done[dep] {
				needed[dep] = true
			}
		}
	}
	live := make([]int, 0, len(needed))
	for pi := range ex.pp.Pipelines {
		if needed[pi] {
			live = append(live, pi)
		}
	}
	return live
}

// LoadState restores a suspension state into a freshly built executor over
// the same physical plan. After LoadState, Run continues the query.
func (ex *Executor) LoadState(dec *vector.Decoder) error {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.ranAlready {
		return fmt.Errorf("engine: LoadState on a used executor")
	}
	if m := dec.String(); m != stateMagic {
		return fmt.Errorf("engine: bad state magic %q", m)
	}
	if v := dec.Uvarint(); v != stateVersion {
		return fmt.Errorf("engine: unsupported state version %d", v)
	}
	kind := SuspendKind(dec.Uvarint())
	fp := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return err
	}
	if fp != ex.pp.Fingerprint {
		return fmt.Errorf("engine: checkpoint plan fingerprint %016x does not match plan %016x", fp, ex.pp.Fingerprint)
	}
	if workers := int(dec.Uvarint()); kind == KindProcess && workers != ex.opts.Workers {
		// The paper's process-level strategy "requires identical resource
		// configurations ... as were in use at the time of suspension".
		return fmt.Errorf("engine: process-level resume requires %d workers, executor has %d", workers, ex.opts.Workers)
	}
	ex.elapsed = time.Duration(dec.Varint())
	ex.acct.SetProcessed(dec.Varint())

	// The done bitmap with the times, then the live global states.
	np := len(ex.pp.Pipelines)
	if n := int(dec.Uvarint()); n != np {
		if err := dec.Err(); err != nil {
			return err
		}
		return fmt.Errorf("engine: checkpoint has %d pipelines, plan has %d", n, np)
	}
	for i := 0; i < np; i++ {
		ex.done[i] = dec.Bool()
		if ex.done[i] {
			ex.pipeTimes[i] = time.Duration(dec.Varint())
		}
	}
	nLive := int(dec.Uvarint())
	for i := 0; i < nLive; i++ {
		pi := int(dec.Uvarint())
		if err := dec.Err(); err != nil {
			return err
		}
		if pi < 0 || pi >= np {
			return fmt.Errorf("engine: checkpoint live pipeline %d out of range", pi)
		}
		if err := ex.pp.Pipelines[pi].Sink.LoadGlobal(ex.states[pi], dec); err != nil {
			return fmt.Errorf("engine: load global state of pipeline %d: %w", pi, err)
		}
	}
	ex.inflight = nil
	if kind != KindProcess {
		return dec.Err()
	}
	nIn := int(dec.Uvarint())
	if err := dec.Err(); err != nil {
		return err
	}
	if nIn < 0 || nIn > np {
		return fmt.Errorf("engine: checkpoint in-flight count %d out of range", nIn)
	}
	totalLocals := 0
	seen := make(map[int]bool, nIn)
	for i := 0; i < nIn; i++ {
		pi := int(dec.Uvarint())
		cursor := int64(dec.Uvarint())
		elapsed := time.Duration(dec.Varint())
		nl := int(dec.Uvarint())
		if err := dec.Err(); err != nil {
			return err
		}
		if pi < 0 || pi >= np || ex.done[pi] || seen[pi] {
			return fmt.Errorf("engine: checkpoint in-flight pipeline %d invalid", pi)
		}
		seen[pi] = true
		for _, dep := range ex.pp.Pipelines[pi].Deps {
			if !ex.done[dep] {
				return fmt.Errorf("engine: checkpoint in-flight pipeline %d has unfinished dep %d", pi, dep)
			}
		}
		if nl < 1 {
			return fmt.Errorf("engine: checkpoint in-flight pipeline %d has no worker locals", pi)
		}
		totalLocals += nl
		if totalLocals > ex.opts.Workers {
			return fmt.Errorf("engine: checkpoint worker locals exceed %d workers", ex.opts.Workers)
		}
		p := ex.pp.Pipelines[pi]
		locals := make([]LocalState, nl)
		for w := 0; w < nl; w++ {
			ls, err := p.Sink.LoadLocal(ex.states[pi], dec)
			if err != nil {
				return fmt.Errorf("engine: load local state %d of pipeline %d: %w", w, pi, err)
			}
			locals[w] = ls
		}
		if c := ex.source(p).MorselCount(); cursor > c {
			return fmt.Errorf("engine: checkpoint cursor %d exceeds %d morsels of pipeline %d", cursor, c, pi)
		}
		ex.inflight = append(ex.inflight, &inflightPipe{pi: pi, cursor: cursor, locals: locals, elapsed: elapsed})
	}
	return dec.Err()
}

// countingWriter counts bytes written. WriteString lets an encoder write
// strings without copying them.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func (c *countingWriter) WriteString(s string) (int, error) {
	c.n += int64(len(s))
	return len(s), nil
}

var _ io.StringWriter = (*countingWriter)(nil)

// measureState serializes a hypothetical checkpoint of the given kind
// to a counting writer and returns its size in bytes.
func (ex *Executor) measureState(kind SuspendKind) int64 {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	var cw countingWriter
	enc := vector.NewEncoder(&cw)
	_ = ex.saveStateLocked(enc, kind, ex.elapsed)
	return cw.n
}

// ProcessImagePadding returns the number of padding bytes a process-level
// checkpoint must append so the persisted image matches the modeled resident
// process size (the CRIU dump includes non-deallocated memory that our
// serialized live state does not).
func (ex *Executor) ProcessImagePadding(serialized int64) int64 {
	img := ex.acct.ImageBytes(ex.liveStateBytes())
	if img <= serialized {
		return 0
	}
	return img - serialized
}
