// Package riveter is an adaptive query suspension and resumption framework
// for cloud-native analytic workloads, reproducing "Riveter: Adaptive Query
// Suspension and Resumption Framework for Cloud Native Databases" (ICDE
// 2024) as a self-contained Go library.
//
// It bundles a vectorized, morsel-driven, push-based pipeline query engine;
// a TPC-H-style workload generator with all 22 benchmark queries; a SQL
// subset; four suspension/resumption strategies (redo, pipeline-level,
// process-level with a CRIU-style image model, and write-ahead lineage
// with near-free suspension); the paper's cost model and
// adaptive strategy-selection algorithm; and the harness that regenerates
// every table and figure of the paper's evaluation.
//
// Quick start:
//
//	db := riveter.Open(riveter.WithWorkers(4))
//	_ = db.GenerateTPCH(0.01)
//	res, _ := db.Query(ctx, "SELECT count(*) FROM lineitem")
//	fmt.Println(res)
//
// Suspension and resumption:
//
//	q, _ := db.PrepareTPCH(21)
//	exec, _ := q.Start(ctx)
//	_ = exec.Suspend(riveter.PipelineLevel) // suspends at the next breaker
//	if errors.Is(exec.Wait(), riveter.ErrSuspended) {
//	    at := riveter.ResumePoint{Target: "file", Ref: db.NewCheckpointPath("q21")}
//	    defer db.Discard(at)
//	    _, _ = exec.Persist(ctx, at, riveter.PersistOptions{})
//	    resumed, _ := q.StartFrom(ctx, at, nil) // possibly on another node
//	    res, _ := resumed.Result()
//	    fmt.Println(res.NumRows())
//	}
package riveter

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"github.com/riveterdb/riveter/internal/blobstore"
	"github.com/riveterdb/riveter/internal/catalog"
	"github.com/riveterdb/riveter/internal/cloud"
	"github.com/riveterdb/riveter/internal/colfile"
	"github.com/riveterdb/riveter/internal/costmodel"
	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/fold"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/strategy"
	"github.com/riveterdb/riveter/internal/tpch"
)

// Strategy identifies a suspension/resumption strategy.
type Strategy = strategy.Kind

// The strategies: the paper's three (§II-A) plus write-ahead lineage.
const (
	// Redo terminates the query and re-runs it from scratch on resume.
	Redo = strategy.Redo
	// PipelineLevel suspends at the completion of the current pipeline and
	// persists the finalized global operator states.
	PipelineLevel = strategy.Pipeline
	// ProcessLevel suspends at any morsel boundary and persists the full
	// execution context (CRIU-style), requiring an identical worker
	// configuration on resume.
	ProcessLevel = strategy.Process
	// LineageLevel suspends by sealing the execution's write-ahead lineage
	// log: the state was already persisted incrementally at every pipeline
	// breaker, so the suspension itself only flushes the log's unsealed
	// tail. Resume replays from the last sealed record. Requires the
	// execution to have been started with Query.StartWithLineage.
	LineageLevel = strategy.Lineage
)

// ErrSuspended is returned by Execution.Wait when the query was suspended
// rather than completed.
var ErrSuspended = engine.ErrSuspended

// DB is a Riveter database instance: an in-memory catalog plus execution
// configuration.
type DB struct {
	cat           *catalog.Catalog
	workers       int
	checkpointDir string
	io            costmodel.IOProfile
	lineage       costmodel.LineageProfile
	tpchSF        float64
	metrics       *obs.Registry
	tracing       bool
	fsys          faultfs.FS
	ckptSeq       atomic.Uint64
	storeCfg      *StoreConfig
	store         *blobstore.Store
	storeErr      error
	// seam is the persistence backing every resume-point verb operates
	// over: fsys, store, and the lineage-path allocator (resume.go).
	seam strategy.Seam

	// Shared-execution state (WithFold): fold asks for it, and foldM
	// registers one scan hub per (table, column-set) and rides every
	// base-table scan on it. compile carries foldM as ScanShare into the
	// one compile of every Query, which is shape-neutral: the plan lowers
	// to the same pipelines with folding on or off.
	fold    bool
	foldM   *fold.Manager
	compile engine.CompileOptions

	// live counts in-flight executions across every start/resume path; the
	// fold manager's hubs consult it to skip shared-window maintenance
	// while at most one execution is running.
	live atomic.Int64
}

// Option configures Open.
type Option func(*DB)

// WithWorkers sets the per-pipeline worker count (default 4).
func WithWorkers(n int) Option {
	return func(db *DB) {
		if n > 0 {
			db.workers = n
		}
	}
}

// WithCheckpointDir sets where checkpoints are written (default: a fresh
// temporary directory).
func WithCheckpointDir(dir string) Option {
	return func(db *DB) { db.checkpointDir = dir }
}

// WithFS routes all checkpoint I/O (writes, restores, the calibration
// probe) through the given filesystem. The default is the real OS
// filesystem; tests pass a faultfs.Injector to exercise torn writes,
// ENOSPC, and crash points deterministically.
func WithFS(fs faultfs.FS) Option {
	return func(db *DB) {
		if fs != nil {
			db.fsys = fs
		}
	}
}

// StoreConfig configures a checkpoint blob store: a content-addressed
// chunk store (see internal/blobstore) that checkpoints can be persisted
// into instead of (or alongside) local files. Pointing several instances
// at the same Dir gives them a shared durability tier — the substrate of
// cross-instance query migration.
type StoreConfig struct {
	// Dir is the store's root directory, shared between instances.
	Dir string
	// Net, when non-zero, simulates a remote object store: every store
	// operation pays the profile's round-trip latency, and transfers pay
	// its bandwidth. The cost model is calibrated against this link.
	Net cloud.NetProfile
}

// WithBlobStore attaches a checkpoint blob store. Open initializes the
// backend, threads checkpoint I/O faults through the DB's filesystem
// (WithFS), and calibrates the cost model's upload terms against the
// configured link, so Algorithm 1 prices suspensions at store speed.
func WithBlobStore(cfg StoreConfig) Option {
	return func(db *DB) { db.storeCfg = &cfg }
}

// WithFold enables shared execution, the one switch for both of its forms:
// every base-table scan rides a shared per-(table, column-set) morsel
// stream, and a server over this DB folds a submission onto a live
// session with an equal plan at admission. Only live executions share;
// nothing is cached across sessions. Results and pipeline shapes are
// identical with and without folding; a suspended rider's cursor is
// already in the checkpoint, so on resume it rejoins its hub mid-stream
// or, on a non-folding instance, falls back to a private scan.
func WithFold() Option {
	return func(db *DB) { db.fold = true }
}

// WithTracing enables per-execution traces: executions created by
// Query.Start and adaptive runs record structured events (pipeline
// start/finish, suspension requests and acknowledgements, checkpoint
// persists, restores, strategy decisions) retrievable via
// Execution.Trace and AdaptiveReport.Trace.
func WithTracing() Option {
	return func(db *DB) { db.tracing = true }
}

// Open creates an empty database.
func Open(opts ...Option) *DB {
	db := &DB{
		cat:     catalog.New(),
		workers: 4,
		metrics: obs.NewRegistry(),
		fsys:    faultfs.OS,
	}
	for _, o := range opts {
		o(db)
	}
	if db.checkpointDir == "" {
		if dir, err := os.MkdirTemp("", "riveter-*"); err == nil {
			db.checkpointDir = dir
		} else {
			db.checkpointDir = os.TempDir()
		}
	} else {
		// A configured directory may not exist yet; creating it here keeps
		// every later checkpoint write a plain create-in-directory, so a
		// missing parent can never surface mid-suspension.
		os.MkdirAll(db.checkpointDir, 0o755)
	}
	db.io, db.lineage, _ = costmodel.CalibrateDir(db.fsys, db.checkpointDir)
	if db.storeCfg != nil {
		db.initStore()
	}
	db.seam = strategy.Seam{FS: db.fsys, Store: db.store, LineagePath: db.NewLineagePath}
	if db.fold {
		db.foldM = fold.NewManager(db.metrics, &db.live)
		db.compile.ScanShare = db.foldM
	}
	db.io.Publish(db.metrics)
	db.lineage.Publish(db.metrics)
	return db
}

// initStore builds the configured blob store and calibrates the cost
// model's upload terms against its backend — the probe runs through the
// remote wrapper, so a simulated slow link shows up in the measured
// numbers exactly as it will in checkpoint uploads.
func (db *DB) initStore() {
	local, err := blobstore.NewLocal(db.fsys, db.storeCfg.Dir)
	if err != nil {
		db.storeErr = err
		return
	}
	var backend blobstore.Backend = local
	if !db.storeCfg.Net.Zero() {
		backend = blobstore.NewRemote(local, db.storeCfg.Net)
	}
	st, err := blobstore.New(blobstore.Config{Backend: backend, Metrics: db.metrics})
	if err != nil {
		db.storeErr = err
		return
	}
	db.store = st
	if prof, err := costmodel.CalibrateStore(db.io, backend); err == nil {
		db.io = prof
	}
}

// BlobStore returns the attached checkpoint store, or an error when none
// was configured (or its initialization failed).
func (db *DB) BlobStore() (*blobstore.Store, error) {
	if db.store == nil {
		if db.storeErr != nil {
			return nil, fmt.Errorf("riveter: blob store: %w", db.storeErr)
		}
		return nil, fmt.Errorf("riveter: no blob store configured (use WithBlobStore)")
	}
	return db.store, nil
}

// IOProfile returns the calibrated I/O profile the cost model uses.
func (db *DB) IOProfile() costmodel.IOProfile { return db.io }

// LineageProfile returns the calibrated lineage-log cost terms (append
// latency and log bandwidth) Algorithm 1 prices a lineage seal with.
func (db *DB) LineageProfile() costmodel.LineageProfile { return db.lineage }

// FoldEnabled reports whether shared execution is on (WithFold).
func (db *DB) FoldEnabled() bool { return db.foldM != nil }

// FS returns the filesystem checkpoint I/O goes through.
func (db *DB) FS() faultfs.FS { return db.fsys }

// Workers returns the configured per-pipeline worker count.
func (db *DB) Workers() int { return db.workers }

// Metrics returns the database's metrics registry. Every execution the DB
// creates records into it: engine progress counters, per-pipeline duration
// histograms, per-strategy suspend/resume latencies (the paper's L_s and
// L_r), and checkpoint sizes. Snapshot it at any time; see internal/obs
// for the metric name taxonomy.
func (db *DB) Metrics() *obs.Registry { return db.metrics }

// obsFor builds an execution's observability context; tr may be nil.
func (db *DB) obsFor(tr *obs.Trace) obs.Context {
	return obs.Context{Metrics: db.metrics, Trace: tr}
}

// newTrace returns a fresh trace when tracing is enabled, else nil.
func (db *DB) newTrace(query string) *obs.Trace {
	if !db.tracing {
		return nil
	}
	return obs.NewTrace(query)
}

// CheckpointDir returns the checkpoint directory.
func (db *DB) CheckpointDir() string { return db.checkpointDir }

// NewCheckpointPath allocates a fresh, collision-free checkpoint file path
// under CheckpointDir. Concurrent suspensions from many sessions each get a
// distinct name (a per-DB sequence number plus the process id, so two
// processes sharing one directory cannot clobber each other either). The
// file is not created; the path is meant to be the Ref of a file
// ResumePoint.
func (db *DB) NewCheckpointPath(prefix string) string { return db.newPath(prefix, "ckpt", ".rvck") }

// NewLineagePath allocates a fresh, collision-free lineage-log file path
// under CheckpointDir, following the same naming discipline as
// NewCheckpointPath (.rvlg extension). The file is not created; the path
// is meant to be handed to Query.StartWithLineage.
func (db *DB) NewLineagePath(prefix string) string { return db.newPath(prefix, "lineage", ".rvlg") }

func (db *DB) newPath(prefix, fallback, ext string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, prefix)
	if clean == "" {
		clean = fallback
	}
	seq := db.ckptSeq.Add(1)
	return filepath.Join(db.checkpointDir, fmt.Sprintf("%s-%d-%06d%s", clean, os.Getpid(), seq, ext))
}

// GenerateTPCH populates the catalog with a TPC-H-style dataset at the
// given scale factor (SF 1 is the full 6M-lineitem scale).
func (db *DB) GenerateTPCH(sf float64) error {
	cat, err := tpch.Generate(tpch.Config{SF: sf})
	if err != nil {
		return err
	}
	for _, name := range cat.Names() {
		t, err := cat.Table(name)
		if err != nil {
			return err
		}
		if err := db.cat.Add(t); err != nil {
			return fmt.Errorf("riveter: %w", err)
		}
	}
	db.tpchSF = sf
	return nil
}

// Tables lists the catalog's table names.
func (db *DB) Tables() []string { return db.cat.Names() }

// NumRows returns a table's row count.
func (db *DB) NumRows(table string) (int64, error) {
	t, err := db.cat.Table(table)
	if err != nil {
		return 0, err
	}
	return t.NumRows(), nil
}

// SaveDir writes every table to dir as columnar files (one .rvc per table).
func (db *DB) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range db.cat.Names() {
		t, err := db.cat.Table(name)
		if err != nil {
			return err
		}
		if err := colfile.WriteTable(filepath.Join(dir, name+".rvc"), t); err != nil {
			return err
		}
	}
	return nil
}

// LoadDir loads every .rvc columnar file in dir into the catalog.
func (db *DB) LoadDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".rvc" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("riveter: no .rvc files in %s", dir)
	}
	for _, name := range names {
		t, err := colfile.ReadTable(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("riveter: load %s: %w", name, err)
		}
		if err := db.cat.Add(t); err != nil {
			return err
		}
	}
	return nil
}
