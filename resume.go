package riveter

// The persistence seam of the public API. Suspended state is one value, a
// ResumePoint, and each lifecycle verb exists once: Execution.Persist,
// Query.StartFrom, DB.Verify, DB.Discard, DB.Quarantine. Where the state
// lives — a checkpoint file, a blob-store key, a sealed lineage log — is
// the point's Target, implemented in internal/strategy (DESIGN.md
// "Persistence seam").

import (
	"context"

	"github.com/riveterdb/riveter/internal/checkpoint"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/strategy"
)

// ResumePoint identifies persisted suspended state: Target is "file" (Ref
// is a checkpoint path, see DB.NewCheckpointPath), "store" (Ref is a key
// in the DB's blob store, see WithBlobStore) or "lineage" (Ref is the path
// of the execution's write-ahead log, see Execution.LineagePath). The zero
// value means none.
type ResumePoint = strategy.ResumePoint

// PointInfo describes a resume point: what Persist wrote or Verify found.
type PointInfo = strategy.PointInfo

// StoreCheckpointInfo is PointInfo under the name CheckpointToStore's
// callers know it by.
type StoreCheckpointInfo = PointInfo

// PersistOptions are Persist's arguments beyond the point: the retry
// policy for file writes, and whether a process-level image that will not
// write may degrade to a pipeline-kind image without its padding.
type PersistOptions = strategy.PersistOptions

// RetryPolicy bounds a retrying checkpoint write: up to Attempts tries
// with capped exponential backoff between them. The zero policy means one
// attempt, no backoff.
type RetryPolicy = checkpoint.RetryPolicy

// LineageConfig tunes a lineage-logged execution; the zero value is valid.
type LineageConfig = strategy.LineageConfig

// Persist writes the suspended execution's state to rp. Valid only after
// Wait returned ErrSuspended. A file point is written atomically — the
// path holds a complete verified image or nothing — with transient
// failures absorbed under opts.Retry (each retry counted in
// checkpoint.retry; cancelling ctx aborts the backoff). A store point
// publishes its manifest last, so the key becomes visible only once every
// chunk is durable. A lineage point must name this execution's own log
// (LineagePath): persisting seals it, which costs only the unsealed tail —
// the state itself was logged while the query ran.
func (e *Execution) Persist(ctx context.Context, rp ResumePoint, opts PersistOptions) (*PointInfo, error) {
	if err := e.suspended(); err != nil {
		return nil, err
	}
	return e.q.db.seam.Persist(ctx, strategy.Run{Ex: e.ex, Log: e.lin}, e.q.name, rp, opts)
}

// StartFrom loads rp — possibly written by another instance — and
// continues the query asynchronously. The returned Execution is
// first-class: it can be suspended and persisted again, so a scheduler can
// preempt the same long query repeatedly, each round trip picking up where
// the last one left off. The point's plan fingerprint must match; process-
// level images also require the same worker count. A lineage point replays
// from its last sealed record with a fresh log attached, so the resumed
// run stays lineage-suspendable. Passing the suspended execution as after
// (nil otherwise) continues its trace into the resumed run.
func (q *Query) StartFrom(ctx context.Context, rp ResumePoint, after *Execution) (*Execution, error) {
	return q.startFrom(ctx, rp, after, LineageConfig{})
}

func (q *Query) startFrom(ctx context.Context, rp ResumePoint, after *Execution, cfg LineageConfig) (*Execution, error) {
	var o obs.Context
	if after != nil {
		o = after.ex.Obs()
	} else {
		o = q.db.obsFor(q.db.newTrace(q.name))
	}
	run, _, err := q.db.seam.Restore(q.pp, q.name, rp, cfg, q.db.execOpts(o))
	if err != nil {
		return nil, err
	}
	if q.db.foldM != nil && o.Trace != nil {
		// A restored rider re-attaches to its scan hubs.
		o.Trace.Event(obs.EvFoldRejoin, obs.A("fingerprint", q.pp.Fingerprint))
	}
	return (&Execution{q: q, ex: run.Ex, lin: run.Log}).launch(ctx), nil
}

// Verify walks rp end to end — framing, checksums, every store chunk —
// without deserializing its state. A nil error means StartFrom will find a
// structurally intact image; torn writes, truncations, and bit flips all
// report as errors, never panics.
func (db *DB) Verify(rp ResumePoint) (*PointInfo, error) { return db.seam.Verify(rp) }

// Discard deletes a consumed resume point: the file, the store manifest
// and its claim, or the lineage log.
func (db *DB) Discard(rp ResumePoint) error { return db.seam.Discard(rp) }

// Quarantine takes an unusable resume point out of circulation (files are
// renamed aside with the .corrupt suffix, a store key is dropped) and
// returns where it went.
func (db *DB) Quarantine(rp ResumePoint) (ResumePoint, error) { return db.seam.Quarantine(rp) }

// The forms below predate ResumePoint; each is one call of the seam.

// Checkpoint persists the suspended execution to a checkpoint file.
func (e *Execution) Checkpoint(path string) (*PointInfo, error) {
	return e.Persist(context.Background(), ResumePoint{Target: strategy.TargetFile, Ref: path}, PersistOptions{})
}

// CheckpointToStore persists the suspended execution into the DB's blob
// store under key.
func (e *Execution) CheckpointToStore(key string) (*StoreCheckpointInfo, error) {
	return e.Persist(context.Background(), ResumePoint{Target: strategy.TargetStore, Ref: key}, PersistOptions{})
}

// SealLineage completes a lineage suspension by sealing the execution's
// write-ahead log.
func (e *Execution) SealLineage() (*PointInfo, error) {
	return e.Persist(context.Background(), ResumePoint{Target: strategy.TargetLineage, Ref: e.LineagePath()}, PersistOptions{})
}

// StartFromCheckpoint continues the query from a checkpoint file.
func (q *Query) StartFromCheckpoint(ctx context.Context, path string) (*Execution, error) {
	return q.StartFrom(ctx, ResumePoint{Target: strategy.TargetFile, Ref: path}, nil)
}

// StartFromStore continues the query from a blob-store key.
func (q *Query) StartFromStore(ctx context.Context, key string) (*Execution, error) {
	return q.StartFrom(ctx, ResumePoint{Target: strategy.TargetStore, Ref: key}, nil)
}

// StartFromLineage replays a sealed lineage log; the fresh log the resumed
// execution carries is created under cfg.
func (q *Query) StartFromLineage(ctx context.Context, path string, cfg LineageConfig) (*Execution, error) {
	return q.startFrom(ctx, ResumePoint{Target: strategy.TargetLineage, Ref: path}, nil, cfg)
}

// RemoveLineage discards a lineage log.
func (db *DB) RemoveLineage(path string) error {
	return db.Discard(ResumePoint{Target: strategy.TargetLineage, Ref: path})
}
