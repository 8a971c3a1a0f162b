package checkpoint

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/riveterdb/riveter/internal/faultfs"
	"github.com/riveterdb/riveter/internal/vector"
)

// benchState builds a deterministic pseudo-random state payload — random
// enough that neither the filesystem nor a compressor can cheat.
func benchState(n int) []byte {
	rng := rand.New(rand.NewSource(7))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// BenchmarkCheckpointWrite measures the full atomic write protocol —
// serialize, tmp file, fsync, rename, directory fsync — per state size.
func BenchmarkCheckpointWrite(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20, 8 << 20} {
		state := string(benchState(size))
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			dir := b.TempDir()
			m := Manifest{Kind: "pipeline", Query: "bench"}
			save := func(enc *vector.Encoder) error {
				enc.String(state)
				return enc.Err()
			}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				path := filepath.Join(dir, fmt.Sprintf("b-%d.rvck", i))
				if _, err := writeFS(faultfs.OS, path, m, save, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointRead measures restore: header walk, checksum, state
// deserialization.
func BenchmarkCheckpointRead(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20, 8 << 20} {
		state := string(benchState(size))
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "b.rvck")
			m := Manifest{Kind: "pipeline", Query: "bench"}
			if _, err := writeFS(faultfs.OS, path, m, func(enc *vector.Encoder) error {
				enc.String(state)
				return enc.Err()
			}, 0); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ReadFS(faultfs.OS, path, func(dec *vector.Decoder) error {
					_ = dec.String()
					return dec.Err()
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointVerify measures the structural walk alone.
func BenchmarkCheckpointVerify(b *testing.B) {
	state := string(benchState(1 << 20))
	path := filepath.Join(b.TempDir(), "b.rvck")
	if _, err := writeFS(faultfs.OS, path, Manifest{Kind: "pipeline", Query: "bench"}, func(enc *vector.Encoder) error {
		enc.String(state)
		return enc.Err()
	}, 0); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := VerifyFS(faultfs.OS, path); err != nil {
			b.Fatal(err)
		}
	}
}
