package blobstore

import (
	"bytes"
	"math/rand"
	"testing"
)

// randBytes returns deterministic pseudo-random data.
func randBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// chunks splits data into content-defined chunks and calls emit with each
// one (a sub-slice of data; emit must not retain it past its call). The
// concatenation of emitted chunks is exactly data; an empty input emits
// nothing. It is the loop the store runs while it writes a checkpoint.
func chunks(p ChunkParams, data []byte, emit func(chunk []byte)) {
	p = p.normalized()
	mask := uint64(p.Avg - 1)
	for len(data) > 0 {
		n := p.cut(data, mask)
		emit(data[:n])
		data = data[n:]
	}
}

// chunksOf collects the chunk boundaries as copies.
func chunksOf(p ChunkParams, data []byte) [][]byte {
	var out [][]byte
	chunks(p, data, func(c []byte) {
		out = append(out, append([]byte(nil), c...))
	})
	return out
}

// TestChunkerRoundTrip proves concatenated chunks reproduce the input
// byte-identically across sizes from empty to multi-chunk.
func TestChunkerRoundTrip(t *testing.T) {
	p := ChunkParams{Min: 64, Avg: 256, Max: 1024}
	for _, n := range []int{0, 1, 63, 64, 65, 255, 256, 1024, 1025, 10_000, 300_000} {
		data := randBytes(int64(n)+1, n)
		var got []byte
		chunks(p, data, func(c []byte) { got = append(got, c...) })
		if !bytes.Equal(got, data) {
			t.Fatalf("n=%d: reassembled %d bytes != input %d", n, len(got), len(data))
		}
	}
}

// TestChunkerDeterministic proves the same input always cuts at the same
// boundaries — the property content addressing stands on.
func TestChunkerDeterministic(t *testing.T) {
	p := ChunkParams{Min: 64, Avg: 256, Max: 1024}
	data := randBytes(7, 100_000)
	a, b := chunksOf(p, data), chunksOf(p, data)
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("chunk %d differs between runs", i)
		}
	}
}

// TestChunkerBounds proves every chunk respects Min and Max (the final
// chunk may undershoot Min: there is nothing left to extend it with).
func TestChunkerBounds(t *testing.T) {
	p := ChunkParams{Min: 64, Avg: 256, Max: 1024}
	data := randBytes(11, 200_000)
	chunks := chunksOf(p, data)
	if len(chunks) < 100 {
		t.Fatalf("expected many chunks, got %d", len(chunks))
	}
	for i, c := range chunks {
		if len(c) > p.Max {
			t.Fatalf("chunk %d is %d bytes, max %d", i, len(c), p.Max)
		}
		if len(c) < p.Min && i != len(chunks)-1 {
			t.Fatalf("non-final chunk %d is %d bytes, min %d", i, len(c), p.Min)
		}
	}
}

// TestChunkerResynchronizes proves a local edit leaves most chunks
// identical: flip one byte mid-stream and the boundaries re-align, so a
// delta upload touches only the edited neighborhood.
func TestChunkerResynchronizes(t *testing.T) {
	p := ChunkParams{Min: 256, Avg: 1024, Max: 4096}
	data := randBytes(23, 500_000)
	edited := append([]byte(nil), data...)
	edited[250_000] ^= 0xFF

	digests := func(chunks [][]byte) map[string]bool {
		m := map[string]bool{}
		for _, c := range chunks {
			m[digestOf(c)] = true
		}
		return m
	}
	orig := digests(chunksOf(p, data))
	ed := chunksOf(p, edited)
	shared := 0
	for _, c := range ed {
		if orig[digestOf(c)] {
			shared++
		}
	}
	if frac := float64(shared) / float64(len(ed)); frac < 0.9 {
		t.Fatalf("only %.0f%% of chunks survive a 1-byte edit (%d of %d)", frac*100, shared, len(ed))
	}
}

// TestChunkParamsNormalized proves degenerate params are repaired rather
// than dividing by zero or looping forever.
func TestChunkParamsNormalized(t *testing.T) {
	for _, p := range []ChunkParams{{}, {Avg: 100}, {Min: 500, Avg: 100, Max: 10}} {
		n := p.normalized()
		if n.Avg <= 0 || n.Avg&(n.Avg-1) != 0 {
			t.Fatalf("%+v: normalized Avg %d not a positive power of two", p, n.Avg)
		}
		if n.Min <= 0 || n.Max < n.Min {
			t.Fatalf("%+v: normalized bounds %d..%d inverted", p, n.Min, n.Max)
		}
		data := randBytes(1, 10_000)
		var got []byte
		chunks(p, data, func(c []byte) { got = append(got, c...) })
		if !bytes.Equal(got, data) {
			t.Fatalf("%+v: round trip failed", p)
		}
	}
}
