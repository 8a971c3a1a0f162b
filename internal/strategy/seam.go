package strategy

// The persistence seam: suspended state is one thing — a ResumePoint — that
// a scheduler can persist, start from, verify, discard and quarantine
// without knowing where it lives. Three targets back it: a local checkpoint
// file, a key in the content-addressed blob store, and a sealed write-ahead
// lineage log. Each lifecycle verb is written once on Seam; the targets are
// the three small implementations at the bottom of this file.

import (
	"context"
	"fmt"
	"time"

	"github.com/riveterdb/riveter/internal/blobstore"
	"github.com/riveterdb/riveter/internal/checkpoint"
	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/obs"
)

// Target names where a resume point lives.
type Target string

// The three targets. Untyped string constants convert implicitly, so code
// outside this module writes ResumePoint{Target: "file", Ref: path}.
const (
	TargetFile    Target = "file"    // Ref is a checkpoint file path (.rvck)
	TargetStore   Target = "store"   // Ref is a blob-store checkpoint key
	TargetLineage Target = "lineage" // Ref is a sealed lineage-log path (.rvlg)
)

// ResumePoint identifies persisted suspended state. The zero value means
// "none": a session holding it starts from scratch.
type ResumePoint struct {
	Target Target
	Ref    string
}

// IsZero reports whether the point names nothing.
func (rp ResumePoint) IsZero() bool { return rp == ResumePoint{} }

// Attr names the point's reference in trace events ("path" for the
// file-backed targets, "store_key" for the store).
func (rp ResumePoint) Attr() obs.Attr {
	name := "ref"
	if t, ok := targets[rp.Target]; ok {
		name = t.refName()
	}
	return obs.A(name, rp.Ref)
}

// PointInfo describes a resume point: what a Persist wrote, what a Restore
// read, or what a Verify found. Fields a target has nothing to say about
// stay zero.
type PointInfo struct {
	// Path is the point's file (file and lineage targets).
	Path string
	// Query is the query name recorded in the point's manifest.
	Query string
	// Kind is "pipeline", "process" or "lineage".
	Kind string
	// StateBytes is the serialized operator state; TotalBytes additionally
	// counts the process-image padding.
	StateBytes, TotalBytes int64
	// Duration is the verb's measured wall time: L_s for Persist, L_r for
	// Restore.
	Duration time.Duration

	// Store target: the point's chunk count, how many of them were already
	// stored and skipped the upload, and the compressed bytes actually sent
	// (new chunks plus the manifest).
	Chunks, DedupHits int
	UploadedBytes     int64

	// Lineage target: the log's contents, its size (the intact prefix, for
	// Verify), and TailBytes — what the seal itself had to flush, the
	// suspension's marginal I/O. Torn reports a truncated tail left by a
	// crash (a replay ignores it; TornErr says why).
	Records, States, Seals int
	LogBytes, TailBytes    int64
	Torn                   bool
	TornErr                string
}

// PersistOptions are the arguments of Persist beyond the point itself.
type PersistOptions struct {
	// Retry bounds write attempts of targets whose writes are not naturally
	// idempotent (files); the zero policy is a single attempt. Store writes
	// dedup what already landed, so retrying them is calling Persist again.
	Retry checkpoint.RetryPolicy
	// AllowUnpadded lets a process-level image that will not fit or write
	// degrade, inside the same Persist, to a pipeline-kind image without the
	// process-image padding (counted in checkpoint.fallback). The serialized
	// state is identical — it embeds its own kind — so a restore still
	// resumes exactly where the suspension stopped.
	AllowUnpadded bool
}

// LineageConfig tunes a lineage-logged execution. The zero value is valid:
// a fresh log path under the checkpoint directory.
type LineageConfig struct {
	// Path is the log file's location; empty allocates one.
	Path string
}

// Run is an executor together with the write-ahead lineage log attached to
// it (nil when it runs without one): what Persist captures and what
// Restore hands back.
type Run struct {
	Ex  *engine.Executor
	Log *LineageLog
}

// Seam is the backing the verbs operate over.
type Seam struct {
	// FS is the filesystem checkpoint files and lineage logs go through
	// (faultfs.OS when nil).
	FS faultfs.FS
	// Store is the attached blob store; nil makes store points an error.
	Store *blobstore.Store
	// LineagePath allocates the path of a fresh lineage log for a
	// LineageConfig that names none.
	LineagePath func(query string) string
}

func (sm Seam) fs() faultfs.FS {
	if sm.FS == nil {
		return faultfs.OS
	}
	return sm.FS
}

// target is one backing's implementation of the lifecycle.
type target interface {
	persist(ctx context.Context, sm Seam, run Run, query, ref string, po PersistOptions) (*PointInfo, error)
	restore(sm Seam, pp *engine.PhysicalPlan, query, ref string, cfg LineageConfig, opts engine.Options) (Run, *PointInfo, error)
	verify(sm Seam, ref string) (*PointInfo, error)
	discard(sm Seam, ref string) error
	quarantine(sm Seam, ref string) (string, error)
	refName() string
}

var targets = map[Target]target{
	TargetFile:    fileTarget{},
	TargetStore:   storeTarget{},
	TargetLineage: lineageTarget{},
}

func (sm Seam) lookup(rp ResumePoint) (target, error) {
	t, ok := targets[rp.Target]
	if !ok {
		return nil, fmt.Errorf("strategy: resume point %q has unknown target %q (want file, store or lineage)", rp.Ref, rp.Target)
	}
	if rp.Target == TargetStore && sm.Store == nil {
		return nil, fmt.Errorf("strategy: store resume point %q: no blob store attached", rp.Ref)
	}
	return t, nil
}

// Persist writes the suspended run's state to rp. A failed persist leaves
// nothing usable at rp.
func (sm Seam) Persist(ctx context.Context, run Run, query string, rp ResumePoint, po PersistOptions) (*PointInfo, error) {
	t, err := sm.lookup(rp)
	if err != nil {
		return nil, err
	}
	if run.Ex.Suspended() == nil {
		return nil, fmt.Errorf("strategy: executor is not suspended")
	}
	return t.persist(ctx, sm, run, query, rp.Ref, po)
}

// Restore loads rp into a fresh executor over pp, ready to Run, and
// records the per-kind resume latency into opts.Obs. A lineage point
// replays with a fresh log attached under cfg, so the resumed run stays
// lineage-suspendable; file and store points ignore cfg and return no log.
func (sm Seam) Restore(pp *engine.PhysicalPlan, query string, rp ResumePoint, cfg LineageConfig, opts engine.Options) (Run, *PointInfo, error) {
	t, err := sm.lookup(rp)
	if err != nil {
		return Run{}, nil, err
	}
	return t.restore(sm, pp, query, rp.Ref, cfg, opts)
}

// Verify walks rp end to end — framing, checksums, every store chunk —
// without deserializing its state. A nil error means a restore will find a
// structurally intact image; torn writes, truncations and bit flips report
// as errors, never panics.
func (sm Seam) Verify(rp ResumePoint) (*PointInfo, error) {
	t, err := sm.lookup(rp)
	if err != nil {
		return nil, err
	}
	return t.verify(sm, rp.Ref)
}

// Discard deletes a consumed or superseded point: the file, the store
// manifest and its claim token (chunks are the store GC's to reclaim), or
// the log. The zero point is a no-op.
func (sm Seam) Discard(rp ResumePoint) error {
	if rp.IsZero() {
		return nil
	}
	t, err := sm.lookup(rp)
	if err != nil {
		return err
	}
	return t.discard(sm, rp.Ref)
}

// Quarantine takes an unusable point out of circulation so no restore trips
// over it again, keeping the evidence where the target can (files are
// renamed aside with the .corrupt suffix; a store key is dropped). It
// returns where the point went.
func (sm Seam) Quarantine(rp ResumePoint) (ResumePoint, error) {
	t, err := sm.lookup(rp)
	if err != nil {
		return rp, err
	}
	ref, err := t.quarantine(sm, rp.Ref)
	if err != nil {
		return rp, err
	}
	return ResumePoint{Target: rp.Target, Ref: ref}, nil
}

// OpenLineage creates the write-ahead log of a run of pp under cfg and
// wires its breaker hook into opts.
func (sm Seam) OpenLineage(pp *engine.PhysicalPlan, query string, cfg LineageConfig, opts *engine.Options) (*LineageLog, error) {
	if cfg.Path == "" {
		if sm.LineagePath == nil {
			return nil, fmt.Errorf("strategy: lineage log needs a path")
		}
		cfg.Path = sm.LineagePath(query)
	}
	lin, err := CreateLineageLog(cfg.Path, query, pp.Fingerprint, opts.Workers, LineageOptions{FS: sm.fs(), Obs: opts.Obs})
	if err != nil {
		return nil, err
	}
	opts.OnBreaker = lin.OnBreaker
	return lin, nil
}

// persistImage is the shared persist of the image targets: it encodes the
// suspended executor's checkpoint image — manifest, state, process-image
// padding — once, and hands it to write together with what the encoding
// cost. It holds the ladder's full→unpadded rung, once: when the full
// process-level image fails and the caller allows it, the same encoded
// state is written again as a pipeline-kind image without padding.
func persistImage(run Run, query string, po PersistOptions, write func(img *checkpoint.Image, serialize time.Duration) (*PointInfo, error)) (*PointInfo, error) {
	ex := run.Ex
	susp := ex.Suspended()
	m := checkpoint.Manifest{
		Kind:            "pipeline",
		Query:           query,
		PlanFingerprint: fmt.Sprintf("%016x", ex.Plan().Fingerprint),
		Workers:         ex.Workers(),
		StateVersion:    engine.StateFormatVersion,
	}
	for _, ip := range susp.InFlight {
		m.InFlightPipelines = append(m.InFlightPipelines, ip.Pipeline)
	}
	var padding func(int64) int64
	if susp.Kind == engine.KindProcess {
		m.Kind, padding = "process", ex.ProcessImagePadding
	}
	start := time.Now()
	img, err := checkpoint.Encode(m, ex.SaveState, padding)
	if err != nil {
		return nil, err
	}
	defer img.Release()
	serialize := time.Since(start)
	info, err := write(img, serialize)
	if err == nil || susp.Kind != engine.KindProcess || !po.AllowUnpadded {
		return info, err
	}
	bare := checkpoint.Image{Manifest: img.Manifest, Payload: img.Payload[:img.Manifest.StateBytes]}
	bare.Manifest.Kind, bare.Manifest.PaddingBytes = "pipeline", 0
	info, ferr := write(&bare, serialize)
	if ferr != nil {
		return nil, err
	}
	o := ex.Obs()
	if r := o.Metrics; r != nil {
		r.Counter(obs.MetricCheckpointFallback).Inc()
	}
	if t := o.Trace; t != nil {
		t.Event(obs.EvCheckpointFallback,
			obs.A("from", "process"),
			obs.A("to", "pipeline"),
			obs.A("error", err.Error()))
	}
	return info, nil
}

// recordPersist records one image write: per-kind suspend latency (the
// measured L_s) and checkpoint sizes.
func recordPersist(o obs.Context, m checkpoint.Manifest, total, serialize, write time.Duration) {
	if r := o.Metrics; r != nil {
		r.DurationHistogram(obs.Kinded(obs.MetricSuspendLatency, m.Kind)).ObserveDuration(total)
		r.SizeHistogram(obs.Kinded(obs.MetricCheckpointBytes, m.Kind)).Observe(m.TotalBytes())
		r.SizeHistogram(obs.MetricCheckpointStateBytes).Observe(m.StateBytes)
		r.DurationHistogram(obs.MetricCheckpointSerialize).ObserveDuration(serialize)
		r.DurationHistogram(obs.MetricCheckpointWrite).ObserveDuration(write)
	}
}

// recordRestore records one image read: per-kind resume latency (the
// measured L_r, padding included, as a CRIU restore would read it).
func recordRestore(o obs.Context, m checkpoint.Manifest, d time.Duration) {
	if r := o.Metrics; r != nil {
		r.DurationHistogram(obs.Kinded(obs.MetricResumeLatency, m.Kind)).ObserveDuration(d)
	}
	if t := o.Trace; t != nil {
		t.Event(obs.EvResumeRestore,
			obs.A("kind", m.Kind),
			obs.A("total_bytes", m.TotalBytes()),
			obs.A("duration", d))
	}
}

func imageInfo(path string, m checkpoint.Manifest, d time.Duration) *PointInfo {
	return &PointInfo{Path: path, Query: m.Query, Kind: m.Kind, StateBytes: m.StateBytes, TotalBytes: m.TotalBytes(), Duration: d}
}

// fileTarget keeps the image in a local checkpoint file: written atomically
// (tmp + fsync + rename), so the path holds a complete verified image or
// nothing.
type fileTarget struct{}

func (fileTarget) refName() string { return "path" }

func (fileTarget) persist(ctx context.Context, sm Seam, run Run, query, path string, po PersistOptions) (*PointInfo, error) {
	o := run.Ex.Obs()
	onRetry := func(attempt int, err error) {
		if r := o.Metrics; r != nil {
			r.Counter(obs.MetricCheckpointRetry).Inc()
		}
		if t := o.Trace; t != nil {
			t.Event(obs.EvCheckpointRetry,
				obs.A("attempt", attempt),
				obs.A("error", err.Error()))
		}
	}
	return persistImage(run, query, po, func(img *checkpoint.Image, serialize time.Duration) (*PointInfo, error) {
		start := time.Now()
		if err := img.Write(ctx, sm.fs(), path, po.Retry, onRetry); err != nil {
			return nil, err
		}
		m, write := img.Manifest, time.Since(start)
		total := serialize + write
		recordPersist(o, m, total, serialize, write)
		if t := o.Trace; t != nil {
			t.Event(obs.EvCheckpointSerialize,
				obs.A("state_bytes", m.StateBytes),
				obs.A("duration", serialize))
			t.Event(obs.EvCheckpointWrite,
				obs.A("total_bytes", m.TotalBytes()),
				obs.A("duration", write))
			t.Event(obs.EvCheckpointPersisted,
				obs.A("kind", m.Kind),
				obs.A("state_bytes", m.StateBytes),
				obs.A("padding_bytes", m.PaddingBytes),
				obs.A("total_bytes", m.TotalBytes()),
				obs.A("duration", total))
		}
		return imageInfo(path, m, total), nil
	})
}

func (fileTarget) restore(sm Seam, pp *engine.PhysicalPlan, _, path string, _ LineageConfig, opts engine.Options) (Run, *PointInfo, error) {
	ex := engine.NewExecutor(pp, opts)
	start := time.Now()
	m, err := checkpoint.ReadFS(sm.fs(), path, ex.LoadState)
	if err != nil {
		return Run{}, nil, err
	}
	d := time.Since(start)
	recordRestore(opts.Obs, m, d)
	return Run{Ex: ex}, imageInfo(path, m, d), nil
}

func (fileTarget) verify(sm Seam, path string) (*PointInfo, error) {
	m, err := checkpoint.VerifyFS(sm.fs(), path)
	if err != nil {
		return nil, err
	}
	return imageInfo(path, m, 0), nil
}

func (fileTarget) discard(sm Seam, path string) error { return sm.fs().Remove(path) }

func (fileTarget) quarantine(sm Seam, path string) (string, error) {
	return checkpoint.Quarantine(sm.fs(), path)
}

// storeTarget keeps the image in the content-addressed blob store: the
// state is chunked and deduplicated against everything already stored, so
// re-suspending a query whose state barely moved uploads only the delta,
// and padding chunks to compressed zero runs that cost almost nothing. The
// manifest is published last, so the key becomes visible only once every
// chunk is durable. A key written by one instance restores on any other
// sharing the store — the substrate of cross-instance migration.
type storeTarget struct{}

func (storeTarget) refName() string { return "store_key" }

func (storeTarget) persist(_ context.Context, sm Seam, run Run, query, key string, po PersistOptions) (*PointInfo, error) {
	st, o := sm.Store, run.Ex.Obs()
	return persistImage(run, query, po, func(img *checkpoint.Image, serialize time.Duration) (*PointInfo, error) {
		wres, err := st.WriteCheckpoint(key, img, o.Trace)
		if err != nil {
			return nil, err
		}
		total := serialize + wres.Duration
		recordPersist(o, wres.Manifest.Manifest, total, serialize, wres.Duration)
		info := imageInfo("", wres.Manifest.Manifest, total)
		info.Chunks, info.DedupHits, info.UploadedBytes = wres.Chunks, wres.DedupHits, wres.UploadedBytes
		return info, nil
	})
}

func (storeTarget) restore(sm Seam, pp *engine.PhysicalPlan, _, key string, _ LineageConfig, opts engine.Options) (Run, *PointInfo, error) {
	ex := engine.NewExecutor(pp, opts)
	res, err := sm.Store.ReadCheckpoint(key, ex.LoadState, opts.Obs.Trace)
	if err != nil {
		return Run{}, nil, err
	}
	recordRestore(opts.Obs, res.Manifest.Manifest, res.Duration)
	info := imageInfo("", res.Manifest.Manifest, res.Duration)
	info.Chunks = len(res.Manifest.Chunks)
	return Run{Ex: ex}, info, nil
}

func (storeTarget) verify(sm Seam, key string) (*PointInfo, error) {
	m, err := sm.Store.VerifyCheckpoint(key)
	if err != nil {
		return nil, err
	}
	info := imageInfo("", m.Manifest, 0)
	info.Chunks = len(m.Chunks)
	return info, nil
}

func (storeTarget) discard(sm Seam, key string) error {
	if err := sm.Store.DeleteCheckpoint(key); err != nil {
		return err
	}
	return sm.Store.ReleaseClaim(key)
}

// quarantine drops the key: chunks are content-addressed and shared, so
// there is no private evidence to keep, and no instance may dispatch into
// the key again.
func (t storeTarget) quarantine(sm Seam, key string) (string, error) {
	return key, t.discard(sm, key)
}

// lineageTarget persists by sealing the write-ahead log the run has been
// appending to all along (lineage.go): the state is already on disk, so
// the suspension costs one tail flush. The restore replays from the last
// sealed breaker state.
type lineageTarget struct{}

func (lineageTarget) refName() string { return "path" }

func (lineageTarget) persist(_ context.Context, sm Seam, run Run, _, path string, _ PersistOptions) (*PointInfo, error) {
	if run.Log == nil || run.Log.Path() != path {
		return nil, fmt.Errorf("strategy: execution has no lineage log at %q (start it with a lineage log attached)", path)
	}
	info, err := run.Log.Seal(run.Ex.Suspended())
	if err != nil {
		if run.Log.Err() != nil {
			// The log's device failed: what is on it identifies nothing
			// recoverable, and the caller's next rung is a checkpoint.
			run.Log.Close()
			_ = sm.fs().Remove(path)
		}
		return nil, err
	}
	run.Log.Close()
	return info, nil
}

func (lineageTarget) restore(sm Seam, pp *engine.PhysicalPlan, query, path string, cfg LineageConfig, opts engine.Options) (Run, *PointInfo, error) {
	lin, err := sm.OpenLineage(pp, query, cfg, &opts)
	if err != nil {
		return Run{}, nil, err
	}
	start := time.Now()
	ex, scan, err := restoreLineagePlan(sm.fs(), pp, path, opts)
	if err != nil {
		lin.Close()
		sm.fs().Remove(lin.Path())
		return Run{}, nil, err
	}
	info := scanInfo(path, scan)
	info.Duration = time.Since(start)
	return Run{Ex: ex, Log: lin}, info, nil
}

func (lineageTarget) verify(sm Seam, path string) (*PointInfo, error) {
	scan, err := ScanLineage(sm.fs(), path)
	if err != nil {
		return nil, err
	}
	return scanInfo(path, scan), nil
}

func scanInfo(path string, scan *LineageScan) *PointInfo {
	return &PointInfo{
		Path:       path,
		Query:      scan.Meta.Query,
		Kind:       "lineage",
		StateBytes: scan.StateBytes,
		Records:    scan.Records,
		States:     scan.States,
		Seals:      scan.Seals,
		LogBytes:   scan.ValidBytes,
		Torn:       scan.Torn(),
		TornErr:    scan.TornErr,
	}
}

func (lineageTarget) discard(sm Seam, path string) error { return sm.fs().Remove(path) }

func (lineageTarget) quarantine(sm Seam, path string) (string, error) {
	return checkpoint.Quarantine(sm.fs(), path)
}
