// Package checkpoint persists suspension state to durable storage. A
// checkpoint file carries a JSON manifest (strategy kind, query name, plan
// fingerprint, worker count, sizes), the serialized executor state, and —
// for process-level checkpoints — zero padding that models the residual
// process image a CRIU dump would contain. Writes are fsynced: the paper's
// suspension latency L_s is dominated by exactly this persistence cost.
//
// Durability protocol. A checkpoint is written to <path>.tmp, fsynced,
// renamed into place, and the parent directory fsynced — so the final path
// either holds a complete, verified image or nothing at all. A crash mid-
// write leaves only a .tmp orphan (swept by SweepTemp on restart), never a
// torn file where a restore would look. Verify walks a file's structure
// (magic, manifest, CRC) without deserializing state, and Quarantine
// renames a failing file aside instead of letting a restore trip over it.
// All I/O goes through an injectable faultfs.FS so the whole protocol is
// testable under deterministic fault plans.
package checkpoint

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"strings"
	"time"

	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/vector"
)

const magic = "RVCK"

// TempSuffix marks an in-flight checkpoint write; CorruptSuffix marks a
// quarantined file.
const (
	TempSuffix    = ".tmp"
	CorruptSuffix = ".corrupt"
)

// Manifest describes a checkpoint file.
type Manifest struct {
	Kind            string `json:"kind"` // "pipeline" or "process"
	Query           string `json:"query"`
	PlanFingerprint string `json:"plan_fingerprint"`
	Workers         int    `json:"workers"`
	StateBytes      int64  `json:"state_bytes"`
	PaddingBytes    int64  `json:"padding_bytes"`
	CreatedUnixNano int64  `json:"created_unix_nano"`
	// StateVersion is the engine state-format revision embedded in the
	// payload (0 in manifests written before the field existed, which carry
	// v1 state). The state stream validates its own version on load; the
	// manifest copy lets tooling inspect a checkpoint without deserializing.
	StateVersion int `json:"state_version,omitempty"`
	// InFlightPipelines lists the pipelines captured mid-execution by a
	// process-level suspension (v2 states capture a set; empty for pipeline
	// checkpoints and for pre-DAG single-cursor images).
	InFlightPipelines []int `json:"in_flight_pipelines,omitempty"`
}

// TotalBytes is the persisted payload size (state + padding).
func (m Manifest) TotalBytes() int64 { return m.StateBytes + m.PaddingBytes }

// WriteResult reports a completed checkpoint write.
type WriteResult struct {
	Manifest Manifest
	// FileBytes is the complete file size on disk.
	FileBytes int64
	// Duration is the wall time of serializing, writing, and fsyncing.
	Duration time.Duration
	// SerializeDuration is the state-serialization share of Duration;
	// WriteDuration is the write+fsync share (padding included). Together
	// they decompose the measured L_s for the observability layer.
	SerializeDuration time.Duration
	WriteDuration     time.Duration
	// Attempts is how many write attempts were made (1 unless WriteRetry
	// absorbed transient faults).
	Attempts int
}

// WriteFS persists a checkpoint: save serializes the executor state;
// padding zero bytes are appended afterwards (process-level image model).
// The write is atomic: the payload lands in <path>.tmp (fsynced), then renames into place and
// the parent directory is fsynced. On any failure the temp file is removed
// (best-effort — a crashed process cannot), and the final path is never
// left holding a torn image.
func WriteFS(fsys faultfs.FS, path string, m Manifest, save func(*vector.Encoder) error, padding int64) (*WriteResult, error) {
	start := time.Now()
	tmp := path + TempSuffix
	res, err := writePayload(fsys, tmp, m, save, padding)
	if err != nil {
		_ = fsys.Remove(tmp)
		return nil, err
	}
	publishStart := time.Now()
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return nil, fmt.Errorf("checkpoint: publish: %w", err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		// The rename landed but is not yet durable; the caller's retry will
		// rewrite the whole file, which is idempotent.
		return nil, fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	res.WriteDuration += time.Since(publishStart)
	res.Duration = time.Since(start)
	return res, nil
}

// writePayload writes the checkpoint image to path (normally the .tmp) and
// fsyncs it.
func writePayload(fsys faultfs.FS, path string, m Manifest, save func(*vector.Encoder) error, padding int64) (*WriteResult, error) {
	start := time.Now()
	f, err := fsys.Create(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()

	w := bufio.NewWriterSize(f, 1<<20)
	crc := crc32.NewIEEE()
	body := io.MultiWriter(w, crc)

	// File layout: [magic][manifestLen][manifest][stateLen][state][crc32]
	// [padding...]. The CRC covers everything before it — header and state —
	// so a bit flip anywhere structural is detected, not just in the state.
	// The state length is only known after encoding, so the state is
	// buffered in memory first; state sizes are modest relative to RAM
	// (they ARE the measured intermediate data).
	serStart := time.Now()
	var stateBuf sliceWriter
	enc := vector.NewEncoder(&stateBuf)
	if err := save(enc); err != nil {
		return nil, fmt.Errorf("checkpoint: serialize state: %w", err)
	}
	if enc.Err() != nil {
		return nil, fmt.Errorf("checkpoint: serialize state: %w", enc.Err())
	}
	serDur := time.Since(serStart)
	m.StateBytes = int64(len(stateBuf.b))
	m.PaddingBytes = padding
	m.CreatedUnixNano = time.Now().UnixNano()

	writeStart := time.Now()
	mj, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	if _, err := io.WriteString(body, magic); err != nil {
		return nil, err
	}
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(mj)))
	if _, err := body.Write(lenBuf[:]); err != nil {
		return nil, err
	}
	if _, err := body.Write(mj); err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(stateBuf.b)))
	if _, err := body.Write(lenBuf[:]); err != nil {
		return nil, err
	}
	if _, err := body.Write(stateBuf.b); err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(lenBuf[:4], crc.Sum32())
	if _, err := w.Write(lenBuf[:4]); err != nil {
		return nil, err
	}
	if err := writePadding(w, padding); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return &WriteResult{
		Manifest:          m,
		FileBytes:         st.Size(),
		Duration:          time.Since(start),
		SerializeDuration: serDur,
		WriteDuration:     time.Since(writeStart),
		Attempts:          1,
	}, nil
}

// RetryPolicy bounds a retrying checkpoint write: up to Attempts tries,
// sleeping BaseDelay doubled each round and capped at MaxDelay between
// them. The zero policy means a single attempt with no backoff.
type RetryPolicy struct {
	Attempts  int
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// normalized clamps a policy to at least one attempt.
func (p RetryPolicy) normalized() RetryPolicy {
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = p.BaseDelay
	}
	return p
}

// WriteRetry is WriteFS under a retry policy: transient faults are absorbed
// by capped exponential backoff; ctx cancellation aborts both the pre-
// attempt check and the backoff sleep, so a shutdown is never blocked
// behind a failing disk. onRetry (optional) observes each failed attempt
// before its backoff sleep.
func WriteRetry(ctx context.Context, fsys faultfs.FS, path string, m Manifest, save func(*vector.Encoder) error, padding int64, pol RetryPolicy, onRetry func(attempt int, err error)) (*WriteResult, error) {
	pol = pol.normalized()
	delay := pol.BaseDelay
	var lastErr error
	for attempt := 1; attempt <= pol.Attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		res, err := WriteFS(fsys, path, m, save, padding)
		if err == nil {
			res.Attempts = attempt
			return res, nil
		}
		lastErr = err
		if attempt == pol.Attempts {
			break
		}
		if onRetry != nil {
			onRetry(attempt, err)
		}
		if delay > 0 {
			t := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, fmt.Errorf("checkpoint: %w", ctx.Err())
			case <-t.C:
			}
			delay *= 2
			if delay > pol.MaxDelay {
				delay = pol.MaxDelay
			}
		}
	}
	return nil, fmt.Errorf("checkpoint: write failed after %d attempts: %w", pol.Attempts, lastErr)
}

type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

var zeros [1 << 16]byte

func writePadding(w io.Writer, n int64) error {
	for n > 0 {
		chunk := int64(len(zeros))
		if n < chunk {
			chunk = n
		}
		if _, err := w.Write(zeros[:chunk]); err != nil {
			return err
		}
		n -= chunk
	}
	return nil
}

// ReadResult reports a completed checkpoint read.
type ReadResult struct {
	Manifest Manifest
	// Duration is the wall time of reading and verifying the file
	// (including consuming the padding, as a restore must).
	Duration time.Duration
}

// ReadFS opens a checkpoint, verifies it, and invokes load with a decoder
// positioned at the state payload.
func ReadFS(fsys faultfs.FS, path string, load func(*vector.Decoder) error) (*ReadResult, error) {
	start := time.Now()
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)

	crc := crc32.NewIEEE()
	m, err := readHeader(r, crc)
	if err != nil {
		return nil, err
	}
	stateReader := bufio.NewReader(io.TeeReader(io.LimitReader(r, m.StateBytes), crc))
	dec := vector.NewDecoder(stateReader)
	if err := load(dec); err != nil {
		return nil, fmt.Errorf("checkpoint: load state: %w", err)
	}
	// Drain any bytes load did not consume so the CRC covers the payload.
	if _, err := io.Copy(io.Discard, stateReader); err != nil {
		return nil, err
	}
	if err := checkTrailer(r, crc.Sum32(), m.PaddingBytes); err != nil {
		return nil, err
	}
	return &ReadResult{Manifest: m, Duration: time.Since(start)}, nil
}

// readHeader consumes magic, manifest, and the state length, returning the
// manifest (with the state length cross-checked against it). Every header
// byte is mirrored into crc, which the file's checksum covers alongside the
// state.
func readHeader(r *bufio.Reader, crc io.Writer) (Manifest, error) {
	head := make([]byte, 4)
	if _, err := io.ReadFull(r, head); err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: read magic: %w", err)
	}
	if string(head) != magic {
		return Manifest{}, fmt.Errorf("checkpoint: bad magic %q", head)
	}
	crc.Write(head)
	var lenBuf [8]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: read manifest length: %w", err)
	}
	crc.Write(lenBuf[:])
	mlen := binary.LittleEndian.Uint64(lenBuf[:])
	if mlen > 1<<20 {
		return Manifest{}, fmt.Errorf("checkpoint: implausible manifest size %d", mlen)
	}
	mj := make([]byte, mlen)
	if _, err := io.ReadFull(r, mj); err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: read manifest: %w", err)
	}
	crc.Write(mj)
	var m Manifest
	if err := json.Unmarshal(mj, &m); err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: manifest: %w", err)
	}
	if m.StateBytes < 0 || m.PaddingBytes < 0 {
		return Manifest{}, fmt.Errorf("checkpoint: manifest has negative sizes")
	}
	// The payload validates its own version precisely on load; here the walk
	// only rejects obviously mangled manifests (the engine's revisions are
	// small integers, 0 meaning "written before the field existed").
	if m.StateVersion < 0 || m.StateVersion > 1<<10 {
		return Manifest{}, fmt.Errorf("checkpoint: implausible state version %d", m.StateVersion)
	}
	for _, pi := range m.InFlightPipelines {
		if pi < 0 {
			return Manifest{}, fmt.Errorf("checkpoint: negative in-flight pipeline index %d", pi)
		}
	}
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: read state length: %w", err)
	}
	crc.Write(lenBuf[:])
	if slen := int64(binary.LittleEndian.Uint64(lenBuf[:])); slen != m.StateBytes {
		return Manifest{}, fmt.Errorf("checkpoint: state length %d does not match manifest %d", slen, m.StateBytes)
	}
	return m, nil
}

// checkTrailer consumes the CRC and padding after the state payload.
func checkTrailer(r *bufio.Reader, sum uint32, padding int64) error {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return fmt.Errorf("checkpoint: read checksum: %w", err)
	}
	if sum != binary.LittleEndian.Uint32(lenBuf[:]) {
		return fmt.Errorf("checkpoint: state checksum mismatch")
	}
	// A restore reads the whole image, padding included.
	if n, err := io.Copy(io.Discard, r); err != nil {
		return err
	} else if n != padding {
		return fmt.Errorf("checkpoint: padding %d bytes, manifest says %d", n, padding)
	}
	return nil
}

// VerifyFS walks a checkpoint's structure — magic, manifest, state CRC,
// padding length — without deserializing the state, and returns its
// manifest. A nil error means a restore will at least find a structurally
// intact image; any torn write, truncation, or bit flip in a covered
// section returns an error without panicking.
func VerifyFS(fsys faultfs.FS, path string) (Manifest, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	crc := crc32.NewIEEE()
	m, err := readHeader(r, crc)
	if err != nil {
		return Manifest{}, err
	}
	if n, err := io.Copy(crc, io.LimitReader(r, m.StateBytes)); err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: read state: %w", err)
	} else if n != m.StateBytes {
		return Manifest{}, fmt.Errorf("checkpoint: state truncated at %d of %d bytes", n, m.StateBytes)
	}
	if err := checkTrailer(r, crc.Sum32(), m.PaddingBytes); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// Quarantine renames a torn or corrupt checkpoint aside with the .corrupt
// suffix so restores stop tripping over it while the evidence survives for
// inspection. Returns the quarantined path.
func Quarantine(fsys faultfs.FS, path string) (string, error) {
	dst := path + CorruptSuffix
	if err := fsys.Rename(path, dst); err != nil {
		return "", fmt.Errorf("checkpoint: quarantine: %w", err)
	}
	return dst, nil
}

// SweepFailure reports one temp file the sweep could not remove.
type SweepFailure struct {
	Path string
	Err  error
}

// SweepTemp removes orphaned in-flight temp files a crashed writer left in
// dir, returning the removed paths. Complete checkpoints are never touched:
// the atomic protocol guarantees anything named *.tmp was abandoned
// mid-write. An entry that cannot be removed does not abort the sweep — the
// rest of the directory is still cleaned and the failure is reported, so a
// single stuck file (EPERM, EBUSY, an injected fault) cannot silently leave
// every other orphan behind. The error is non-nil only when the directory
// itself cannot be read.
func SweepTemp(fsys faultfs.FS, dir string) (removed []string, failed []SweepFailure, err error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), TempSuffix) {
			continue
		}
		p := filepath.Join(dir, e.Name())
		if rerr := fsys.Remove(p); rerr != nil {
			failed = append(failed, SweepFailure{Path: p, Err: rerr})
			continue
		}
		removed = append(removed, p)
	}
	return removed, failed, nil
}
