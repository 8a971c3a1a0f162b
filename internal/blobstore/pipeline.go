package blobstore

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// A checkpoint call moves its chunks through runOrdered: a sequential
// producer on the calling goroutine (the gear-hash cutter on write, the
// manifest walk on read), a small worker group for the CPU-bound step
// (digest, compress, inflate + verify), and an in-order consumer back on
// the calling goroutine. Every Backend call is made by the producer or the
// consumer — never by a worker — so the backend sees one caller issuing
// operations in chunk order whatever the workers' timing, and fault plans
// that count operations stay deterministic.

// pipelineWidth is the worker count of one checkpoint call. Four workers
// keep up with the sequential cutter (gear hash ≈ sha256 speed); more
// would only idle.
func pipelineWidth() int { return min(runtime.GOMAXPROCS(0), 4) }

// chunkJob carries one chunk through a pipeline stage. Jobs live in a
// ring owned by runOrdered and are reused once consumed.
type chunkJob struct {
	ref ChunkRef
	// chunk is the uncompressed bytes, a sub-slice of the call's payload
	// buffer: the source on write, the destination on read.
	chunk []byte
	// packed is the stored form: fetched by the producer on read, produced
	// by the worker on write into buf, a bufPool buffer the consumer hands
	// back once the bytes are put.
	packed []byte
	buf    *bytes.Buffer
	// sum is the chunk's sha256: computed on write, expected on read.
	sum [sha256.Size]byte
	// repeat is an earlier occurrence of the same digest in the payload,
	// verified by the time this job is consumed (read path); nil otherwise.
	// A repeat skips the workers and is copied by the consumer.
	repeat []byte

	err  error
	done chan struct{}
}

// runOrdered drives one stage. next fills the job it is handed and
// reports whether there was one; work runs on the worker group; consume
// sees the jobs in the order next produced them. The first error from any
// of the three stops the stage: queued jobs are skipped, and runOrdered
// returns only after every worker has exited, so no goroutine outlives
// the call and nothing touches the payload afterwards.
func runOrdered(next func(*chunkJob) (bool, error), work func(*chunkJob), consume func(*chunkJob) error) error {
	width := pipelineWidth()
	// Two jobs per worker: one in hand, one queued, so a worker never
	// waits for the producer while the consumer is inside a backend call.
	ring := make([]chunkJob, 2*width)
	for i := range ring {
		ring[i].done = make(chan struct{}, 1)
	}
	jobs := make(chan *chunkJob, len(ring)) // sized to the ring: a send never blocks
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				if !stop.Load() {
					work(j)
				}
				j.done <- struct{}{}
			}
		}()
	}
	defer func() {
		stop.Store(true)
		close(jobs)
		wg.Wait()
	}()

	head, tail, more := 0, 0, true
	for {
		for more && tail-head < len(ring) {
			j := &ring[tail%len(ring)]
			j.packed, j.repeat, j.err = nil, nil, nil
			ok, err := next(j)
			if err != nil {
				return err
			}
			if !ok {
				more = false
				break
			}
			if j.repeat == nil {
				jobs <- j
			}
			tail++
		}
		if head == tail {
			return nil
		}
		j := &ring[head%len(ring)]
		head++
		if j.repeat == nil {
			<-j.done
		}
		if j.err != nil {
			return j.err
		}
		if err := consume(j); err != nil {
			return err
		}
	}
}

// The codec pools: a flate.Writer is ~1.2 MB of tables and a reader 40 KB,
// far more than the few-KB chunks they code, so both are Reset, never
// rebuilt. bufPool holds compressed-output buffers.
var (
	flateWriterPool = sync.Pool{New: func() any {
		// BestSpeed: the store optimizes upload bytes, and checkpoint state
		// is short-lived — dedup, not ratio, is the main saving. The level
		// is valid, so NewWriter cannot fail.
		zw, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return zw
	}}
	flateReaderPool = sync.Pool{New: func() any { return flate.NewReader(bytes.NewReader(nil)) }}
	bufPool         = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// compress appends the flate stream of data to dst.
func compress(dst *bytes.Buffer, data []byte) error {
	zw := flateWriterPool.Get().(*flate.Writer)
	defer flateWriterPool.Put(zw)
	zw.Reset(dst)
	if _, err := zw.Write(data); err != nil {
		return err
	}
	return zw.Close()
}

// inflater returns a pooled flate reader over packed.
func inflater(packed []byte) io.ReadCloser {
	zr := flateReaderPool.Get().(io.ReadCloser)
	// Reset only fails on a reader flate did not build.
	_ = zr.(flate.Resetter).Reset(bytes.NewReader(packed), nil)
	return zr
}

// decompress inflates a stored object whose size is not known up front
// (a manifest), growing the output as it goes and failing once it passes
// max bytes, so a corrupt or hostile object cannot balloon memory.
func decompress(packed []byte, max int) ([]byte, error) {
	zr := inflater(packed)
	defer flateReaderPool.Put(zr)
	out, err := io.ReadAll(io.LimitReader(zr, int64(max)+1))
	if err != nil {
		return nil, err
	}
	if len(out) > max {
		return nil, fmt.Errorf("blobstore: object inflates past %d bytes", max)
	}
	return out, nil
}

// inflateInto inflates a stored chunk straight into dst, which is sized
// by the manifest: the stream must yield exactly len(dst) bytes.
func inflateInto(dst, packed []byte) error {
	zr := inflater(packed)
	defer flateReaderPool.Put(zr)
	if n, err := io.ReadFull(zr, dst); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%d bytes, manifest says %d", n, len(dst))
		}
		return err
	}
	var probe [1]byte
	switch _, err := io.ReadFull(zr, probe[:]); err {
	case io.EOF:
		return nil
	case nil:
		return fmt.Errorf("inflates past declared size %d", len(dst))
	default:
		return err
	}
}
