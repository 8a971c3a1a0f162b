package vector

import (
	"bytes"
	"fmt"
	"testing"
)

func benchChunk() *Chunk {
	c := NewChunk([]Type{TypeInt64, TypeFloat64, TypeString, TypeDate})
	for i := 0; i < ChunkCapacity; i++ {
		c.AppendRowValues(
			NewInt64(int64(i*37)),
			NewFloat64(float64(i)*0.25),
			NewString(fmt.Sprintf("value-%d", i%64)),
			NewDate(int64(9000+i%1000)),
		)
	}
	return c
}

// BenchmarkEncodeChunk measures the shared binary codec's write throughput.
func BenchmarkEncodeChunk(b *testing.B) {
	c := benchChunk()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Chunk(c)
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		enc := NewEncoder(&buf)
		enc.Chunk(c)
		if enc.Err() != nil {
			b.Fatal(enc.Err())
		}
	}
}

// BenchmarkDecodeChunk measures the codec's read throughput.
func BenchmarkDecodeChunk(b *testing.B) {
	c := benchChunk()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Chunk(c)
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := NewDecoder(bytes.NewReader(data))
		if got := dec.Chunk(); got == nil || dec.Err() != nil {
			b.Fatal(dec.Err())
		}
	}
}

// BenchmarkHashChunk measures row hashing over two key columns.
func BenchmarkHashChunk(b *testing.B) {
	c := benchChunk()
	dst := make([]uint64, c.Len())
	b.SetBytes(int64(c.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(dst)
		c.Col(0).HashInto(dst)
		c.Col(2).HashInto(dst)
	}
}
