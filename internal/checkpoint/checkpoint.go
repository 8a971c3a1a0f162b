// Package checkpoint holds the one in-memory form of persisted suspension
// state — an Image: a JSON manifest (strategy kind, query name, plan
// fingerprint, worker count, sizes) and a payload of serialized executor
// state followed, for process-level checkpoints, by zero padding that models
// the residual process image a CRIU dump would contain — and the checkpoint
// file that stores one. Encode builds an image, serializing the state
// exactly once; every target (the file here, the blob store, a lineage
// log's breaker records, an in-place relaunch) then moves those bytes.
// Decode is the way back: sizes checked, payload filled and verified, state
// handed to the loader.
//
// Durability protocol. A checkpoint file is published with
// faultfs.WriteAtomic — written to <path>.tmp, fsynced, renamed into place,
// the parent directory fsynced — so the final path either holds a complete,
// verified image or nothing at all. A crash mid-write leaves only a .tmp
// orphan (swept by SweepTemp on restart), never a torn file where a restore
// would look. Writes are fsynced because the paper's suspension latency L_s
// is dominated by exactly this persistence cost. VerifyFS reads a file
// without deserializing state, and Quarantine renames a failing file aside
// instead of letting a restore trip over it. All I/O goes through an
// injectable faultfs.FS so the whole protocol is testable under
// deterministic fault plans.
package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"strings"
	"sync"
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

// Bounds sizes read from outside must respect before anything is allocated
// from them: a payload (state plus padding) is at most maxPayloadBytes and a
// file's manifest at most maxManifestBytes. Encode applies the payload bound
// too, so no writer produces what a reader refuses.
const (
	maxPayloadBytes  = 16 << 30
	maxManifestBytes = 1 << 20
)

// Manifest describes a checkpoint image.
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
	// process-level suspension (states since v2 capture a set; empty for pipeline
	// checkpoints and for pre-DAG single-cursor images).
	InFlightPipelines []int `json:"in_flight_pipelines,omitempty"`
}

// TotalBytes is the persisted payload size (state + padding).
func (m Manifest) TotalBytes() int64 { return m.StateBytes + m.PaddingBytes }

// checkSizes rejects sizes that cannot be trusted as allocation sizes.
func (m Manifest) checkSizes() error {
	s, p := m.StateBytes, m.PaddingBytes
	if s < 0 || p < 0 {
		return fmt.Errorf("checkpoint: negative sizes (state %d, padding %d)", s, p)
	}
	if s > maxPayloadBytes || p > maxPayloadBytes || s+p > maxPayloadBytes || s+p != int64(int(s+p)) {
		return fmt.Errorf("checkpoint: payload of %d+%d bytes outside the %d-byte limit", s, p, int64(maxPayloadBytes))
	}
	return nil
}

// Image is one checkpoint held in memory. Payload is the serialized state
// (the first Manifest.StateBytes bytes) followed by Manifest.PaddingBytes
// zero bytes, contiguous because the blob store chunks across the seam; an
// image built by Encode borrows it from the package's pool until Release.
type Image struct {
	Manifest Manifest
	Payload  []byte
}

// payloadPool recycles payload buffers between images. A process image is
// megabytes allocated and zeroed per suspension and again per restore;
// reused, the write side clears only the padding and the read side nothing,
// since every byte is overwritten by verified content. One pool serves
// state-sized and image-sized buffers alike: on the suspend-cycle benchmark
// 94 % of requests hit and three padded encodes in ten outgrow what they
// drew; a pool per size class hit less often — the rarer large buffers aged
// out between collections — and allocated 0.7 MB more per cycle.
var payloadPool sync.Pool // of *[]byte

// getPayload returns a buffer of length n whose contents are undefined.
func getPayload(n int) []byte {
	if p, _ := payloadPool.Get().(*[]byte); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

func putPayload(b []byte) { payloadPool.Put(&b) }

// Encode builds the image of m: save serializes the executor state, once,
// into a recycled buffer, and padding (nil for none) derives the process-
// image padding from the encoded length; the zero bytes are appended in
// place. After the first image of a given size the payload is neither
// allocated nor copied. The caller owns the image until Release.
func Encode(m Manifest, save func(*vector.Encoder) error, padding func(stateBytes int64) int64) (*Image, error) {
	buf := bytes.NewBuffer(getPayload(0))
	enc := vector.NewEncoder(buf)
	err := save(enc)
	if err == nil {
		err = enc.Err()
	}
	if err != nil {
		putPayload(buf.Bytes())
		return nil, fmt.Errorf("checkpoint: serialize state: %w", err)
	}
	m.StateBytes = int64(buf.Len())
	m.PaddingBytes = 0
	if padding != nil {
		m.PaddingBytes = padding(m.StateBytes)
	}
	if err := m.checkSizes(); err != nil {
		putPayload(buf.Bytes())
		return nil, err
	}
	payload := buf.Bytes()
	if total := int(m.TotalBytes()); cap(payload) < total {
		payload = append(make([]byte, 0, total), payload...)[:total]
	} else {
		payload = payload[:total]
		clear(payload[m.StateBytes:])
	}
	return &Image{Manifest: m, Payload: payload}, nil
}

// Release returns the payload to the pool; the image must not be used
// afterwards.
func (img *Image) Release() {
	putPayload(img.Payload)
	img.Payload = nil
}

// Decode is the one way an image comes back, whatever held it. m's sizes are
// checked against the payload bound before a buffer of m.TotalBytes() is
// taken from the pool; fill must overwrite every byte of it with verified
// content (the file's state, the store's chunks); load — nil to only
// verify — then reads the state. The buffer is recycled on return: load must
// not keep references into what the decoder hands it, and vector's decoder
// copies everything it returns.
func Decode(m Manifest, fill func(payload []byte) error, load func(*vector.Decoder) error) error {
	if err := m.checkSizes(); err != nil {
		return err
	}
	payload := getPayload(int(m.TotalBytes()))
	defer putPayload(payload)
	if err := fill(payload); err != nil {
		return err
	}
	if load == nil {
		return nil
	}
	if err := load(vector.NewDecoder(bytes.NewReader(payload[:m.StateBytes]))); err != nil {
		return fmt.Errorf("checkpoint: load state: %w", err)
	}
	return nil
}

// RetryPolicy bounds a retrying checkpoint write: up to Attempts tries,
// sleeping BaseDelay doubled each round and capped at MaxDelay between
// them. The zero policy means a single attempt with no backoff.
type RetryPolicy struct {
	Attempts  int
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// nowUnixNano stamps manifests; tests pin it to compare file bytes.
var nowUnixNano = func() int64 { return time.Now().UnixNano() }

// Write persists the image to a checkpoint file at path, atomically: on any
// failure the temp file is removed and the final path is never left holding
// a torn image. Under pol transient faults are absorbed by capped
// exponential backoff — every attempt re-writes the same encoded bytes; ctx
// cancellation aborts both the pre-attempt check and the backoff sleep, so a
// shutdown is never blocked behind a failing disk. onRetry (optional)
// observes each failed attempt before its backoff sleep.
//
// File layout: [magic][manifestLen][manifest][stateLen][state][crc32]
// [padding...]. The CRC covers everything before it — header and state — so
// a bit flip anywhere structural is detected, not just in the state.
func (img *Image) Write(ctx context.Context, fsys faultfs.FS, path string, pol RetryPolicy, onRetry func(attempt int, err error)) error {
	m := img.Manifest
	m.CreatedUnixNano = nowUnixNano()
	mj, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("checkpoint: encode manifest: %w", err)
	}
	state, padding := img.Payload[:m.StateBytes], img.Payload[m.StateBytes:]
	head := make([]byte, 0, len(magic)+8+len(mj)+8)
	head = append(head, magic...)
	head = binary.LittleEndian.AppendUint64(head, uint64(len(mj)))
	head = append(head, mj...)
	head = binary.LittleEndian.AppendUint64(head, uint64(len(state)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, state))

	attempts, delay := max(pol.Attempts, 1), pol.BaseDelay
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		err := faultfs.WriteAtomic(fsys, path+TempSuffix, path, head, state, crc[:], padding)
		if err == nil {
			return nil
		}
		if attempt == attempts {
			return fmt.Errorf("checkpoint: write failed after %d attempts: %w", attempts, err)
		}
		if onRetry != nil {
			onRetry(attempt, err)
		}
		if delay > 0 {
			t := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				t.Stop()
				return fmt.Errorf("checkpoint: %w", ctx.Err())
			case <-t.C:
			}
			delay = min(2*delay, max(pol.MaxDelay, pol.BaseDelay))
		}
	}
}

// ReadFS opens a checkpoint file, verifies it, and invokes load (nil to only
// verify) with a decoder over the state. The whole image is read, padding
// included, as a restore must; only the state is held.
func ReadFS(fsys faultfs.FS, path string, load func(*vector.Decoder) error) (Manifest, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: %w", err)
	}
	return readImage(f, st.Size(), load)
}

// readImage decodes a checkpoint file of size bytes from r. Nothing is
// allocated from a length the file states until it has been checked against
// size: the manifest length against its bound and the bytes left, the
// manifest's state and padding sizes against the payload bound and — to the
// byte — against what remains after the header and the checksum.
func readImage(r io.Reader, size int64, load func(*vector.Decoder) error) (Manifest, error) {
	var fixed [len(magic) + 8]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: read magic and manifest length: %w", err)
	}
	if string(fixed[:len(magic)]) != magic {
		return Manifest{}, fmt.Errorf("checkpoint: bad magic %q", fixed[:len(magic)])
	}
	mlen := binary.LittleEndian.Uint64(fixed[len(magic):])
	if mlen > maxManifestBytes || int64(mlen) > size-int64(len(fixed))-8 {
		return Manifest{}, fmt.Errorf("checkpoint: implausible manifest size %d in a file of %d bytes", mlen, size)
	}
	rest := make([]byte, mlen+8) // manifest, then the state length
	if _, err := io.ReadFull(r, rest); err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(rest[:mlen], &m); err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: manifest: %w", err)
	}
	if err := m.checkSizes(); err != nil {
		return Manifest{}, err
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
	if slen := int64(binary.LittleEndian.Uint64(rest[mlen:])); slen != m.StateBytes {
		return Manifest{}, fmt.Errorf("checkpoint: state length %d does not match manifest %d", slen, m.StateBytes)
	}
	headLen := int64(len(fixed) + len(rest))
	if want := headLen + m.StateBytes + 4 + m.PaddingBytes; want != size {
		return Manifest{}, fmt.Errorf("checkpoint: file is %d bytes, its manifest describes %d", size, want)
	}
	sum := crc32.Update(crc32.ChecksumIEEE(fixed[:]), crc32.IEEETable, rest)
	held := m
	held.PaddingBytes = 0 // a file's padding is read through a window, not held
	err := Decode(held, func(state []byte) error {
		if _, err := io.ReadFull(r, state); err != nil {
			return fmt.Errorf("checkpoint: read state: %w", err)
		}
		var crc [4]byte
		if _, err := io.ReadFull(r, crc[:]); err != nil {
			return fmt.Errorf("checkpoint: read checksum: %w", err)
		}
		if crc32.Update(sum, crc32.IEEETable, state) != binary.LittleEndian.Uint32(crc[:]) {
			return fmt.Errorf("checkpoint: state checksum mismatch")
		}
		// Padding models image size, not data: a restore reads all of it, as
		// a CRIU restore reads its image, and checks only that it is there.
		window := make([]byte, min(m.PaddingBytes, 64<<10))
		for left := m.PaddingBytes; left > 0; left -= int64(len(window)) {
			window = window[:min(left, int64(len(window)))]
			if _, err := io.ReadFull(r, window); err != nil {
				return fmt.Errorf("checkpoint: read padding: %w", err)
			}
		}
		return nil
	}, load)
	if err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// VerifyFS reads a checkpoint file end to end — magic, manifest, sizes,
// state CRC, padding length — without deserializing the state, and returns
// its manifest. A nil error means a restore will at least find a
// structurally intact image; any torn write, truncation, or bit flip in a
// covered section returns an error without panicking.
func VerifyFS(fsys faultfs.FS, path string) (Manifest, error) {
	return ReadFS(fsys, path, nil)
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
