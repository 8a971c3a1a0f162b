// Content-defined chunking for checkpoint state. Boundaries are chosen by a
// gear rolling hash over the content itself, so an insertion or a changed
// region early in the stream shifts only the chunks it touches — the chunker
// re-synchronizes on the next content-defined boundary and every later chunk
// hashes identically to the previous suspension's. That re-synchronization is
// what turns repeated suspensions of the same query into delta uploads:
// finished pipelines' global states and untouched source cursors reproduce
// the same bytes, the same boundaries, and therefore the same chunk digests.
package blobstore

import (
	"encoding/binary"
	"math/bits"
)

// ChunkParams bounds the content-defined chunker. The zero value means
// DefaultChunkParams.
type ChunkParams struct {
	// Min and Max clamp chunk sizes; Avg is the target mean size and must be
	// a power of two (it becomes the boundary mask).
	Min, Avg, Max int
}

// DefaultChunkParams targets 16 KiB chunks (4 KiB min, 64 KiB max) — small
// enough that the modest states of low-SF runs still split into several
// chunks, large enough that digest overhead stays negligible at scale.
func DefaultChunkParams() ChunkParams {
	return ChunkParams{Min: 4 << 10, Avg: 16 << 10, Max: 64 << 10}
}

// normalized fills defaults and repairs inconsistent bounds.
func (p ChunkParams) normalized() ChunkParams {
	d := DefaultChunkParams()
	if p.Avg <= 0 {
		p.Avg = d.Avg
	}
	// Round Avg up to a power of two for the boundary mask.
	if p.Avg&(p.Avg-1) != 0 {
		p.Avg = 1 << bits.Len(uint(p.Avg))
	}
	if p.Min <= 0 {
		p.Min = p.Avg / 4
	}
	if p.Min < 64 {
		p.Min = 64
	}
	if p.Max < p.Min {
		p.Max = p.Avg * 4
	}
	if p.Max < p.Min {
		p.Max = p.Min
	}
	// Readers refuse larger chunks (checkpoint.go), so no writer cuts one.
	if p.Max > maxChunkBytes {
		p.Max = maxChunkBytes
		p.Min = min(p.Min, p.Max)
	}
	return p
}

// gearTable is the gear-hash byte table: 256 pseudo-random 64-bit values,
// generated once from a fixed-seed xorshift so chunk boundaries are stable
// across builds and platforms (a table change would break every stored
// chunk's identity).
var gearTable = func() [256]uint64 {
	var t [256]uint64
	s := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		// xorshift64*.
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		t[i] = s * 0x2545F4914F6CDD1D
	}
	return t
}()

// cut returns the length of the next chunk: the first position past Min
// where the rolling hash hits the boundary mask, clamped at Max (and at the
// end of the input).
//
// Only the hash's low bits (h&mask) ever decide a boundary, and a left
// shift never carries high bits into them, so they depend on the last
// bits.Len(mask) bytes alone. Under zero bytes they settle on the fixed
// point -gear[0]&mask and stay there: once the low bits sit on it and the
// next eight bytes are zero, those eight positions hold no boundary and
// leave the low bits where they were, so the loop steps over them with one
// word load. A process image's padding is megabytes of zeros; everything
// else pays one extra compare per byte.
func (p ChunkParams) cut(data []byte, mask uint64) int {
	n := len(data)
	if n <= p.Min {
		return n
	}
	limit := p.Max
	if n < limit {
		limit = n
	}
	var h uint64
	// The hash warms up inside the skipped Min prefix so the boundary
	// decision at Min+1 already carries context.
	start := p.Min - 64
	if start < 0 {
		start = 0
	}
	for i := start; i < p.Min; i++ {
		h = (h << 1) + gearTable[data[i]]
	}
	// A fixed point of zero never reaches its case: every position in a
	// zero run is then a boundary, and the first one returns.
	zero := -gearTable[0] & mask
	for i := p.Min; i < limit; i++ {
		h = (h << 1) + gearTable[data[i]]
		switch h & mask {
		case 0:
			return i + 1
		case zero:
			for i+9 <= limit && binary.LittleEndian.Uint64(data[i+1:]) == 0 {
				i += 8
			}
		}
	}
	return limit
}
