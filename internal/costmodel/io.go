// Package costmodel implements Riveter's cost model (§III-C): suspension and
// resumption latency estimation from intermediate-data sizes and I/O
// characteristics, the two process-image size estimators (regression-based
// and optimizer-based, Table IV), and the adaptive strategy selection of
// Algorithm 1.
package costmodel

import (
	"fmt"
	"path/filepath"
	"time"

	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/obs"
)

// IOProfile characterizes the persistence target used for checkpoints:
// either a local device (write/read terms) or a blob store (upload/
// download terms). When the store terms are set they take over the
// latency estimates — Algorithm 1 then prices suspension against the
// link the checkpoint will actually cross, not the local disk.
type IOProfile struct {
	// WriteBytesPerSec and ReadBytesPerSec are sustained bandwidths of
	// the local checkpoint device.
	WriteBytesPerSec float64
	ReadBytesPerSec  float64
	// FixedLatency covers file creation, fsync, and manifest overhead.
	FixedLatency time.Duration

	// UploadBytesPerSec and DownloadBytesPerSec are the measured
	// bandwidths to the configured blob-store backend (0 = no store).
	UploadBytesPerSec   float64
	DownloadBytesPerSec float64
	// UploadFixedLatency is the store's per-checkpoint fixed cost
	// (round trips, chunk probes, manifest publish).
	UploadFixedLatency time.Duration
}

// StoreBacked reports whether checkpoints target a blob store, making
// the upload/download terms govern the latency estimates.
func (p IOProfile) StoreBacked() bool {
	return p.UploadBytesPerSec > 0 || p.DownloadBytesPerSec > 0 || p.UploadFixedLatency > 0
}

// DefaultIOProfile is a conservative local-SSD profile used when
// calibration fails.
func DefaultIOProfile() IOProfile {
	return IOProfile{
		WriteBytesPerSec: 400 << 20,
		ReadBytesPerSec:  800 << 20,
		FixedLatency:     2 * time.Millisecond,
	}
}

// SuspendLatency estimates L_s for a payload of the given size against
// the configured target (store upload when store-backed, local write
// otherwise).
func (p IOProfile) SuspendLatency(bytes int64) time.Duration {
	if p.StoreBacked() {
		if p.UploadBytesPerSec <= 0 {
			return p.UploadFixedLatency
		}
		return p.UploadFixedLatency + time.Duration(float64(bytes)/p.UploadBytesPerSec*float64(time.Second))
	}
	if p.WriteBytesPerSec <= 0 {
		return p.FixedLatency
	}
	return p.FixedLatency + time.Duration(float64(bytes)/p.WriteBytesPerSec*float64(time.Second))
}

// ResumeLatency estimates L_r for a payload of the given size.
func (p IOProfile) ResumeLatency(bytes int64) time.Duration {
	if p.StoreBacked() {
		if p.DownloadBytesPerSec <= 0 {
			return p.UploadFixedLatency
		}
		return p.UploadFixedLatency + time.Duration(float64(bytes)/p.DownloadBytesPerSec*float64(time.Second))
	}
	if p.ReadBytesPerSec <= 0 {
		return p.FixedLatency
	}
	return p.FixedLatency + time.Duration(float64(bytes)/p.ReadBytesPerSec*float64(time.Second))
}

// CalibrateDir measures the device backing dir with one probe file and
// returns both profiles it prices: a burst of small fsynced appends gives
// the lineage log's append latency, a bulk write gives the write bandwidth
// (which is also the log bandwidth), and reading the file back gives the
// read bandwidth. FixedLatency is the 2 ms constant. On error both
// defaults come back with it.
func CalibrateDir(fsys faultfs.FS, dir string) (IOProfile, LineageProfile, error) {
	const (
		smallAppends = 16
		smallBytes   = 256
		bulkBytes    = 8 << 20
	)
	path := filepath.Join(dir, ".riveter-io-probe")
	defer fsys.Remove(path)
	fail := func(err error) (IOProfile, LineageProfile, error) {
		return DefaultIOProfile(), DefaultLineageProfile(), fmt.Errorf("costmodel: calibrate: %w", err)
	}

	f, err := fsys.Create(path)
	if err != nil {
		return fail(err)
	}
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	aStart := time.Now()
	for i := 0; i < smallAppends; i++ {
		if _, err := f.Write(buf[:smallBytes]); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fail(err)
		}
	}
	appendLat := time.Since(aStart) / smallAppends

	wStart := time.Now()
	for written := 0; written < bulkBytes; written += len(buf) {
		if _, err := f.Write(buf); err != nil {
			f.Close()
			return fail(err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fail(err)
	}
	wDur := time.Since(wStart)
	if err := f.Close(); err != nil {
		return fail(err)
	}

	rStart := time.Now()
	rf, err := fsys.Open(path)
	if err != nil {
		return fail(err)
	}
	read := 0
	for {
		n, err := rf.Read(buf)
		read += n
		if err != nil {
			break
		}
	}
	rf.Close()
	rDur := time.Since(rStart)

	if appendLat <= 0 || wDur <= 0 || rDur <= 0 || read == 0 {
		return DefaultIOProfile(), DefaultLineageProfile(), nil
	}
	prof := IOProfile{
		WriteBytesPerSec: bulkBytes / wDur.Seconds(),
		ReadBytesPerSec:  float64(read) / rDur.Seconds(),
		FixedLatency:     2 * time.Millisecond,
	}
	return prof, LineageProfile{AppendLatency: appendLat, LogBytesPerSec: prof.WriteBytesPerSec}, nil
}

// StoreProber is the slice of a blob-store backend the calibration
// needs (satisfied by blobstore.Backend). Probing the backend — not the
// local checkpoint device — is the point: with a simulated remote the
// measured numbers include its latency and bandwidth shaping, so the
// cost model prices suspension against the link checkpoints will
// actually cross.
type StoreProber interface {
	Put(name string, data []byte) error
	Get(name string) ([]byte, error)
	Delete(name string) error
}

// CalibrateStore measures the configured store backend and fills the
// profile's upload terms, leaving base's local-device terms intact. The
// probe object lives in the chunk namespace under a non-digest name, so
// even a leaked probe (crash mid-calibration) is swept by the next GC
// pass as an unreferenced chunk.
func CalibrateStore(base IOProfile, be StoreProber) (IOProfile, error) {
	const probeBytes = 4 << 20
	const name = "chunks/.riveter-store-probe"
	defer be.Delete(name)

	// A tiny object measures the per-operation fixed cost (round trips,
	// create+fsync) without meaningful transfer time.
	small := make([]byte, 64)
	fixedStart := time.Now()
	if err := be.Put(name, small); err != nil {
		return base, fmt.Errorf("costmodel: store probe: %w", err)
	}
	fixed := time.Since(fixedStart)

	buf := make([]byte, probeBytes)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	wStart := time.Now()
	if err := be.Put(name, buf); err != nil {
		return base, fmt.Errorf("costmodel: store probe: %w", err)
	}
	wDur := time.Since(wStart) - fixed
	if wDur <= 0 {
		wDur = time.Since(wStart)
	}
	rStart := time.Now()
	got, err := be.Get(name)
	if err != nil {
		return base, fmt.Errorf("costmodel: store probe: %w", err)
	}
	if len(got) != probeBytes {
		return base, fmt.Errorf("costmodel: store probe read %d of %d bytes", len(got), probeBytes)
	}
	rDur := time.Since(rStart) - fixed
	if rDur <= 0 {
		rDur = time.Since(rStart)
	}

	p := base
	p.UploadFixedLatency = fixed
	p.UploadBytesPerSec = probeBytes / wDur.Seconds()
	p.DownloadBytesPerSec = probeBytes / rDur.Seconds()
	return p, nil
}

// Publish surfaces the calibrated profile as gauges, so /metrics shows
// the exact numbers Algorithm 1's latency terms are computed from.
func (p IOProfile) Publish(r *obs.Registry) {
	r.Gauge(obs.MetricIOWriteBps).Set(int64(p.WriteBytesPerSec))
	r.Gauge(obs.MetricIOReadBps).Set(int64(p.ReadBytesPerSec))
	r.Gauge(obs.MetricIOFixedLatency).Set(int64(p.FixedLatency))
	if p.StoreBacked() {
		r.Gauge(obs.MetricIOUploadBps).Set(int64(p.UploadBytesPerSec))
		r.Gauge(obs.MetricIODownloadBps).Set(int64(p.DownloadBytesPerSec))
		r.Gauge(obs.MetricIOUploadLatency).Set(int64(p.UploadFixedLatency))
	}
}
