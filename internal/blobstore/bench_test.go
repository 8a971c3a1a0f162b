package blobstore

import (
	"fmt"
	"testing"

	"github.com/riveterdb/riveter/internal/checkpoint"
	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/vector"
)

// BenchmarkChunker measures content-defined chunking throughput at the
// default production bounds: on incompressible data, one hash step per
// byte, and on a process image, whose zero padding the cutter steps over
// a word at a time.
func BenchmarkChunker(b *testing.B) {
	image := storeBenchCases[1]
	inputs := []struct {
		name string
		data []byte
	}{
		{"256KB", randBytes(11, 256<<10)},
		{"4096KB", randBytes(11, 4<<20)},
		{"image", append(append([]byte(nil), image.state...), make([]byte, image.padding)...)},
	}
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			p := DefaultChunkParams()
			b.SetBytes(int64(len(in.data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				p.Chunks(in.data, func(c []byte) { n += len(c) })
				if n != len(in.data) {
					b.Fatalf("chunker lost bytes: %d of %d", n, len(in.data))
				}
			}
		})
	}
}

// storeBenchCases are the two images the store benchmarks move: 1 MiB of
// incompressible state, where every chunk is distinct and the codecs do
// the work, and a 5.7 MB process image (the suspend-cycle workload's
// median: ~210 KB of state under zero padding), where most chunks repeat.
var storeBenchCases = []struct {
	name    string
	state   []byte
	padding int64
}{
	{"1MiB", randBytes(12, 1<<20), 0},
	{"image", mixedBytes(106, 212_337), 5_500_768},
}

// noSyncFS is the OS filesystem with fsync turned off. A device flush per
// chunk made the store benchmarks measure the disk (a cold 1 MiB write
// swung 56–101 ms between runs) instead of the program's work: chunk, hash,
// compress, and the system calls that create and rename each object.
type noSyncFS struct{ faultfs.FS }

type noSyncFile struct{ faultfs.File }

func (noSyncFile) Sync() error { return nil }

func (n noSyncFS) Create(path string) (faultfs.File, error) {
	f, err := n.FS.Create(path)
	return noSyncFile{f}, err
}

func (noSyncFS) SyncDir(string) error { return nil }

// benchStore opens a store in a fresh directory of the real filesystem.
func benchStore(b *testing.B) *Store {
	b.Helper()
	local, err := NewLocal(noSyncFS{faultfs.OS}, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	st, err := New(Config{Backend: local})
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkStoreWriteCold measures a full checkpoint upload: chunk,
// hash, compress, write every distinct chunk plus the manifest.
func BenchmarkStoreWriteCold(b *testing.B) {
	for _, c := range storeBenchCases {
		b.Run(c.name, func(b *testing.B) {
			st := benchStore(b)
			m := checkpoint.Manifest{Kind: "pipeline", Query: "bench"}
			save := func(enc *vector.Encoder) error {
				enc.Bytes(c.state)
				return enc.Err()
			}
			b.SetBytes(int64(len(c.state)) + c.padding)
			b.ReportAllocs()
			// Iteration -1 is untimed: it fills the codec and buffer pools,
			// so that a one-iteration smoke run measures the steady state
			// the gate's baseline was recorded in.
			for i := -1; i < b.N; i++ {
				if i == 0 {
					b.ResetTimer()
				}
				// A distinct key per iteration, but identical content: the
				// store is cold, the process is not. Delete the manifest so
				// keys do not accumulate; chunk dedup across iterations is
				// measured by BenchmarkStoreWriteDedup below, so delete the
				// chunks too.
				key := fmt.Sprintf("bench-%d", i)
				if _, err := writeSaved(st, key, m, save, c.padding, nil); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := st.DeleteCheckpoint(key); err != nil {
					b.Fatal(err)
				}
				if _, err := st.GC(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkStoreWriteDedup measures the delta-suspension hot path: the
// same state re-uploaded, every chunk deduplicating against the store.
func BenchmarkStoreWriteDedup(b *testing.B) {
	for _, c := range storeBenchCases {
		b.Run(c.name, func(b *testing.B) {
			st := benchStore(b)
			m := checkpoint.Manifest{Kind: "pipeline", Query: "bench"}
			save := func(enc *vector.Encoder) error {
				enc.Bytes(c.state)
				return enc.Err()
			}
			if _, err := writeSaved(st, "warm", m, save, c.padding, nil); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(c.state)) + c.padding)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := writeSaved(st, "warm", m, save, c.padding, nil)
				if err != nil {
					b.Fatal(err)
				}
				if res.DedupHits != res.Chunks {
					b.Fatalf("dedup miss: %d of %d chunks", res.DedupHits, res.Chunks)
				}
			}
		})
	}
}

// BenchmarkStoreRead measures restore: manifest walk, chunk download,
// decompression, digest verification, reassembly.
func BenchmarkStoreRead(b *testing.B) {
	for _, c := range storeBenchCases {
		b.Run(c.name, func(b *testing.B) {
			st := benchStore(b)
			m := checkpoint.Manifest{Kind: "pipeline", Query: "bench"}
			if _, err := writeSaved(st, "r", m, func(enc *vector.Encoder) error {
				enc.Bytes(c.state)
				return enc.Err()
			}, c.padding, nil); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(c.state)) + c.padding)
			b.ReportAllocs()
			for i := -1; i < b.N; i++ { // iteration -1 warms the pools, untimed
				if i == 0 {
					b.ResetTimer()
				}
				if _, err := st.ReadCheckpoint("r", func(dec *vector.Decoder) error {
					dec.Bytes()
					return dec.Err()
				}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
