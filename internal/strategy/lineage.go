package strategy

// Write-ahead lineage suspension (ROADMAP item 3; arXiv 2403.08062):
// instead of paying checkpoint-sized I/O when a termination warning
// arrives, the execution appends one pipeline-kind breaker-state record to
// an append-only log at every pipeline breaker and seals it there. A
// suspension then only seals the log once more: flush + fsync of one small
// seal record, which is near-free regardless of state size.
// A resume scans the log, loads the last sealed breaker-state record, and
// deterministically re-executes the pipelines that had not finalized by
// then — the bounded replay the strategy trades for its cheap suspend.
//
// Log format (.rvlg):
//
//	"RVLG" <version:1>
//	record*  where record = <type:1> <len:4 LE> <payload> <crc32:4 LE>
//
// The CRC covers type, length, and payload, so any torn tail — a record
// cut mid-payload by a crash, a corrupted length, an unknown type — is
// detected at scan time and the log is logically truncated there: torn
// records are never replayed. Breaker-state payloads are inline serialized
// executor state. Logs written by older binaries may also hold
// morsel-progress records (type 2); the scanner validates and skips them.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"github.com/riveterdb/riveter/internal/checkpoint"
	"github.com/riveterdb/riveter/internal/engine"
	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/obs"
	"github.com/riveterdb/riveter/internal/vector"
)

const (
	lineageMagic   = "RVLG"
	lineageVersion = 1

	recLineageMeta byte = 1
	// recLineageMorsel is a morsel-progress record: written by older
	// binaries, read by nothing, skipped at scan time.
	recLineageMorsel byte = 2
	recLineageState  byte = 3
	recLineageSeal   byte = 4

	// maxLineageRecord bounds a record's declared payload length so a
	// corrupted length field cannot balloon memory at scan time.
	maxLineageRecord = 256 << 20
)

// LineageMeta is the log's header record: enough to validate that a replay
// targets the same plan under a compatible state format.
type LineageMeta struct {
	Query           string `json:"query"`
	PlanFingerprint string `json:"plan_fingerprint"`
	Workers         int    `json:"workers"`
	StateVersion    int    `json:"state_version"`
}

// lineageSeal is the payload of the final seal record.
type lineageSeal struct {
	ElapsedNs int64 `json:"elapsed_ns"`
	Records   int   `json:"records"`
}

// LineageOptions configure a write-ahead lineage log.
type LineageOptions struct {
	// FS is the filesystem the log is appended through (faultfs.OS when nil).
	FS faultfs.FS
	// Obs attaches metrics and tracing.
	Obs obs.Context
}

// LineageLog is an open write-ahead lineage log attached to a running
// execution. OnBreaker is wired into engine.Options; Seal is called once
// the execution quiesced under a suspension. Log-write failures are sticky
// and deliberately non-fatal to the query: they surface through Err and at
// Seal, where the caller degrades to a checkpoint-based strategy.
type LineageLog struct {
	path    string
	query   string
	fp      string
	workers int
	o       obs.Context

	mu             sync.Mutex
	f              faultfs.File
	pending        []byte // framed records not yet written+fsynced
	logBytes       int64  // total framed bytes appended (durable + pending)
	records        int
	states         int
	lastStateBytes int64
	seals          int
	lastSeal       time.Time
	writeErr       error
	closed         bool
}

// CreateLineageLog creates the log file, writes its header and meta
// record, and fsyncs — a crash immediately after start leaves a valid
// empty log whose replay is simply a fresh run.
func CreateLineageLog(path, query string, fingerprint uint64, workers int, lo LineageOptions) (*LineageLog, error) {
	if lo.FS == nil {
		lo.FS = faultfs.OS
	}
	meta := LineageMeta{
		Query:           query,
		PlanFingerprint: fmt.Sprintf("%016x", fingerprint),
		Workers:         workers,
		StateVersion:    engine.StateFormatVersion,
	}
	mj, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("strategy: encode lineage meta: %w", err)
	}
	f, err := lo.FS.Create(path)
	if err != nil {
		return nil, fmt.Errorf("strategy: create lineage log: %w", err)
	}
	l := &LineageLog{
		path:     path,
		query:    query,
		fp:       meta.PlanFingerprint,
		workers:  workers,
		o:        lo.Obs,
		f:        f,
		lastSeal: time.Now(),
	}
	l.pending = append(l.pending, lineageMagic...)
	l.pending = append(l.pending, lineageVersion)
	l.logBytes = int64(len(l.pending))
	l.appendRecordLocked(recLineageMeta, mj)
	if err := l.flushSyncLocked(); err != nil {
		f.Close()
		lo.FS.Remove(path)
		return nil, fmt.Errorf("strategy: initialize lineage log: %w", err)
	}
	return l, nil
}

// Path returns the log file's path ("" for a nil log: a run without one).
func (l *LineageLog) Path() string {
	if l == nil {
		return ""
	}
	return l.path
}

// Err returns the sticky first log-write failure (nil while healthy). The
// cost model gates the lineage strategy on this: a dead log makes lineage
// infeasible.
func (l *LineageLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeErr
}

// TailBytes returns the unsealed tail: the bytes a seal must still flush.
func (l *LineageLog) TailBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(len(l.pending))
}

// LastStateBytes returns the serialized size of the most recent
// breaker-state record — the state a resume will read back, and the cost
// model's restore-size input for the lineage strategy.
func (l *LineageLog) LastStateBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastStateBytes
}

// UnsealedFor returns the wall time since the last seal — the replay
// window a crash right now would cost, and the cost model's replay-time
// estimate for a lineage suspension.
func (l *LineageLog) UnsealedFor() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return time.Since(l.lastSeal)
}

// appendRecordLocked frames one record into the pending buffer.
func (l *LineageLog) appendRecordLocked(typ byte, payload []byte) {
	start := len(l.pending)
	l.pending = append(l.pending, typ)
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(payload)))
	l.pending = append(l.pending, lenb[:]...)
	l.pending = append(l.pending, payload...)
	crc := crc32.ChecksumIEEE(l.pending[start:])
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc)
	l.pending = append(l.pending, crcb[:]...)
	l.logBytes += int64(len(l.pending) - start)
	l.records++
	if r := l.o.Metrics; r != nil {
		r.Counter(obs.MetricLineageAppends).Inc()
		r.Counter(obs.MetricLineageLogBytes).Add(int64(len(l.pending) - start))
	}
}

// flushSyncLocked writes the pending tail and fsyncs — one seal.
func (l *LineageLog) flushSyncLocked() error {
	if l.writeErr != nil {
		return l.writeErr
	}
	if len(l.pending) > 0 {
		if _, err := l.f.Write(l.pending); err != nil {
			l.writeErr = err
			return err
		}
		l.pending = l.pending[:0]
	}
	if err := l.f.Sync(); err != nil {
		l.writeErr = err
		return err
	}
	l.seals++
	l.lastSeal = time.Now()
	if r := l.o.Metrics; r != nil {
		r.Counter(obs.MetricLineageSeals).Inc()
	}
	return nil
}

// OnBreaker appends a breaker-state record — the serialized pipeline-kind
// executor state as of this breaker — and seals the log; wire into
// engine.Options.OnBreaker. Always returns ActionContinue: the log observes
// execution, it never suspends it, and a log-write failure must not kill
// the query (it degrades the suspension path instead).
func (l *LineageLog) OnBreaker(ev *engine.BreakerEvent) engine.BreakerAction {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.writeErr != nil || l.closed {
		return engine.ActionContinue
	}
	img, err := checkpoint.Encode(checkpoint.Manifest{
		Kind:            "lineage",
		Query:           l.query,
		PlanFingerprint: l.fp,
		Workers:         l.workers,
		StateVersion:    engine.StateFormatVersion,
	}, ev.SavePipelineState, nil)
	if err != nil {
		l.writeErr = err
		return engine.ActionContinue
	}
	defer img.Release()
	l.appendRecordLocked(recLineageState, img.Payload)
	l.states++
	l.lastStateBytes = img.Manifest.StateBytes
	if err := l.flushSyncLocked(); err != nil {
		return engine.ActionContinue
	}
	if t := l.o.Trace; t != nil {
		t.Event(obs.EvLineageAppend,
			obs.A("pipeline", ev.PipelineIdx),
			obs.A("state_bytes", l.lastStateBytes),
			obs.A("sealed", true))
	}
	return engine.ActionContinue
}

// Seal finishes the log under a suspension: the final seal record is
// appended and the tail flushed and fsynced. info may be nil (sealing a
// completed or abandoned run). The result is the whole cost of a lineage
// suspension: TailBytes is what this seal had to flush, Duration the
// lineage L_s (recorded as suspend.latency.lineage).
func (l *LineageLog) Seal(info *engine.SuspendInfo) (*PointInfo, error) {
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, fmt.Errorf("strategy: lineage log already closed")
	}
	if l.writeErr != nil {
		return nil, fmt.Errorf("strategy: lineage log failed earlier: %w", l.writeErr)
	}
	seal := lineageSeal{Records: l.records}
	if info != nil {
		seal.ElapsedNs = int64(info.Elapsed)
	}
	sj, err := json.Marshal(seal)
	if err != nil {
		return nil, fmt.Errorf("strategy: encode seal record: %w", err)
	}
	l.appendRecordLocked(recLineageSeal, sj)
	tailBytes := int64(len(l.pending)) // includes the seal record itself
	if err := l.flushSyncLocked(); err != nil {
		return nil, fmt.Errorf("strategy: seal lineage log: %w", err)
	}
	res := &PointInfo{
		Path:       l.path,
		Query:      l.query,
		Kind:       "lineage",
		StateBytes: l.lastStateBytes,
		Records:    l.records,
		States:     l.states,
		Seals:      l.seals,
		LogBytes:   l.logBytes,
		TailBytes:  tailBytes,
		Duration:   time.Since(start),
	}
	if r := l.o.Metrics; r != nil {
		r.DurationHistogram(obs.Kinded(obs.MetricSuspendLatency, "lineage")).ObserveDuration(res.Duration)
	}
	if t := l.o.Trace; t != nil {
		t.Event(obs.EvLineageSeal,
			obs.A("records", res.Records),
			obs.A("states", res.States),
			obs.A("log_bytes", res.LogBytes),
			obs.A("tail_bytes", res.TailBytes),
			obs.A("duration", res.Duration))
	}
	return res, nil
}

// Close closes the log file without sealing; pending unsynced records are
// flushed on a best-effort basis.
func (l *LineageLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.writeErr == nil && len(l.pending) > 0 {
		if _, err := l.f.Write(l.pending); err != nil {
			l.writeErr = err
		}
		l.pending = nil
	}
	return l.f.Close()
}

// LineageScan is the result of scanning a lineage log: its meta header,
// record totals over the valid prefix, the last intact breaker-state
// record, and where — if anywhere — the log was logically truncated.
type LineageScan struct {
	Meta LineageMeta
	// Records counts intact records (legacy morsel records included);
	// States and Seals count those of their type.
	Records, States, Seals int
	// LastState is the last intact breaker-state payload (nil when none).
	LastState []byte
	// StateBytes is the size of that state payload.
	StateBytes int64
	// Elapsed is the execution time recorded by the last seal record.
	Elapsed time.Duration
	// ValidBytes is the length of the intact prefix. TornOffset is the byte
	// offset of the first torn record (-1 for a clean log); everything from
	// it on was ignored — torn records are detected, truncated, and never
	// replayed. TornErr says what was wrong.
	ValidBytes int64
	TornOffset int64
	TornErr    string
}

// Torn reports whether the log ended in a torn record.
func (s *LineageScan) Torn() bool { return s.TornOffset >= 0 }

// ScanLineage reads a lineage log and returns its scan. The header (magic,
// version, meta record) must be intact — without it the log identifies
// nothing and an error is returned; any later torn record logically
// truncates the log at that offset instead of failing.
func ScanLineage(fsys faultfs.FS, path string) (*LineageScan, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("strategy: open lineage log: %w", err)
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("strategy: read lineage log: %w", err)
	}
	return scanLineage(data, path)
}

// scanLineage scans the bytes of the log at path (named in errors only).
// LastState aliases data.
func scanLineage(data []byte, path string) (*LineageScan, error) {
	if len(data) < len(lineageMagic)+1 || string(data[:len(lineageMagic)]) != lineageMagic {
		return nil, fmt.Errorf("strategy: %s is not a lineage log (bad magic)", path)
	}
	if v := data[len(lineageMagic)]; v != lineageVersion {
		return nil, fmt.Errorf("strategy: unsupported lineage log version %d", v)
	}
	s := &LineageScan{TornOffset: -1}
	off := int64(len(lineageMagic) + 1)
	total := int64(len(data))
	sawMeta := false
	for off < total {
		typ, payload, next, terr := readLineageRecord(data, off)
		if terr != "" {
			s.TornOffset, s.TornErr = off, terr
			break
		}
		if !sawMeta {
			if typ != recLineageMeta {
				return nil, fmt.Errorf("strategy: lineage log %s missing meta record", path)
			}
			var meta struct {
				LineageMeta
				StoreKey string `json:"store_key"`
			}
			if err := json.Unmarshal(payload, &meta); err != nil {
				return nil, fmt.Errorf("strategy: lineage log %s meta: %w", path, err)
			}
			if meta.StoreKey != "" {
				return nil, fmt.Errorf("strategy: lineage log %s names store_key %q: its breaker states live in a blob store, and store-backed lineage logs are not supported", path, meta.StoreKey)
			}
			s.Meta, sawMeta = meta.LineageMeta, true
			s.Records++
			off = next
			s.ValidBytes = off
			continue
		}
		switch typ {
		case recLineageMorsel:
			if len(payload) != 12 {
				s.TornOffset, s.TornErr = off, "morsel record with bad payload size"
			}
		case recLineageState:
			s.States++
			s.LastState, s.StateBytes = payload, int64(len(payload))
		case recLineageSeal:
			var seal lineageSeal
			if err := json.Unmarshal(payload, &seal); err != nil {
				s.TornOffset, s.TornErr = off, "seal record undecodable"
			} else {
				s.Seals++
				s.Elapsed = time.Duration(seal.ElapsedNs)
			}
		case recLineageMeta:
			s.TornOffset, s.TornErr = off, "duplicate meta record"
		default:
			s.TornOffset, s.TornErr = off, fmt.Sprintf("unknown record type %d", typ)
		}
		if s.Torn() {
			break
		}
		s.Records++
		off = next
		s.ValidBytes = off
	}
	if !sawMeta {
		return nil, fmt.Errorf("strategy: lineage log %s has no intact meta record", path)
	}
	return s, nil
}

// readLineageRecord parses one framed record at off. It returns the record
// type, payload, and the offset just past the record, or a non-empty torn
// reason when the bytes at off do not form an intact record.
func readLineageRecord(data []byte, off int64) (typ byte, payload []byte, next int64, torn string) {
	total := int64(len(data))
	if off+5 > total {
		return 0, nil, 0, "record header cut short"
	}
	typ = data[off]
	ln := int64(binary.LittleEndian.Uint32(data[off+1 : off+5]))
	if ln > maxLineageRecord {
		return 0, nil, 0, "record length implausible"
	}
	end := off + 5 + ln + 4
	if end > total {
		return 0, nil, 0, "record payload cut short"
	}
	want := binary.LittleEndian.Uint32(data[end-4 : end])
	if crc32.ChecksumIEEE(data[off:end-4]) != want {
		return 0, nil, 0, "record checksum mismatch"
	}
	return typ, data[off+5 : off+5+ln], end, ""
}

// restoreLineagePlan replays the log into a fresh executor over pp: the
// last sealed breaker-state record is loaded (pipeline-kind, so any worker
// count can resume) and Run then re-executes exactly the pipelines that
// had not finalized by that record — the bounded replay.
func restoreLineagePlan(fsys faultfs.FS, pp *engine.PhysicalPlan, path string, opts engine.Options) (*engine.Executor, *LineageScan, error) {
	start := time.Now()
	scan, err := ScanLineage(fsys, path)
	if err != nil {
		return nil, nil, err
	}
	if fp := fmt.Sprintf("%016x", pp.Fingerprint); scan.Meta.PlanFingerprint != fp {
		return nil, nil, fmt.Errorf("strategy: lineage log plan fingerprint %s does not match plan %s",
			scan.Meta.PlanFingerprint, fp)
	}
	o := opts.Obs
	if scan.Torn() {
		if r := o.Metrics; r != nil {
			r.Counter(obs.MetricLineageTornTruncated).Inc()
		}
		if t := o.Trace; t != nil {
			t.Event(obs.EvLineageTruncated,
				obs.A("offset", scan.TornOffset),
				obs.A("error", scan.TornErr))
		}
	}
	ex := engine.NewExecutor(pp, opts)
	if scan.LastState != nil {
		if err := ex.LoadState(vector.NewDecoder(bytes.NewReader(scan.LastState))); err != nil {
			return nil, nil, fmt.Errorf("strategy: load lineage state: %w", err)
		}
	}
	dur := time.Since(start)
	if r := o.Metrics; r != nil {
		r.DurationHistogram(obs.Kinded(obs.MetricResumeLatency, "lineage")).ObserveDuration(dur)
		r.DurationHistogram(obs.MetricLineageReplay).ObserveDuration(dur)
	}
	if t := o.Trace; t != nil {
		t.Event(obs.EvLineageReplay,
			obs.A("records", scan.Records),
			obs.A("states", scan.States),
			obs.A("state_bytes", scan.StateBytes),
			obs.A("log_bytes", scan.ValidBytes),
			obs.A("duration", dur))
	}
	return ex, scan, nil
}
