package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

// The breaker state bytes are pinned against the boxed-key aggregate table
// that the typed key columns replaced: testdata/aggstate.txt was recorded
// from it, and has no -update path.

// aggStateTypes is the input layout: four key columns (BIGINT, DATE,
// VARCHAR, DOUBLE) and three argument columns.
var aggStateTypes = []vector.Type{
	vector.TypeInt64, vector.TypeDate, vector.TypeString, vector.TypeFloat64, // keys
	vector.TypeFloat64, vector.TypeInt64, vector.TypeString, // x, y, z
}

// aggStateChunks is the fixed input: 200 rows in four chunks of uneven
// length, about a hundred groups, later chunks longer so later locals hold
// more groups. The first row's DOUBLE key is -0.0 and row 165 (last chunk)
// is the same group with +0.0, so the group keeps its first-seen -0.0
// only if locals merge in order. The VARCHAR and DOUBLE keys are NULL on
// some rows, and so are the arguments; x sums are inexact in binary, so
// their bits depend on the merge order too.
func aggStateChunks() []*vector.Chunk {
	var chunks []*vector.Chunk
	i := 0
	for _, n := range []int{31, 47, 41, 81} {
		c := vector.NewChunk(aggStateTypes)
		for ; n > 0; n, i = n-1, i+1 {
			s := vector.NewString([]string{"x", "yy", "zzz"}[i%3])
			if i%5 == 0 {
				s = vector.NewNull(vector.TypeString)
			}
			f := vector.NewFloat64(0)
			switch {
			case i == 0:
				f = vector.NewFloat64(math.Copysign(0, -1))
			case i%7 == 3:
				f = vector.NewFloat64(2.5)
			case i%11 == 5:
				f = vector.NewNull(vector.TypeFloat64)
			}
			x := vector.NewFloat64(float64(i)*0.1 - 3)
			if i%9 == 4 {
				x = vector.NewNull(vector.TypeFloat64)
			}
			y := vector.NewInt64(int64(i*7%13 - 6))
			if i%8 == 2 {
				y = vector.NewNull(vector.TypeInt64)
			}
			c.AppendRowValues(
				vector.NewInt64(int64(i%11)), vector.NewDate(int64(19000+i%3)), s, f,
				x, y, vector.NewString(fmt.Sprintf("v%02d", i*5%17)),
			)
		}
		chunks = append(chunks, c)
	}
	return chunks
}

// aggStateSpecs covers SUM over both numeric types, AVG, MIN and MAX over
// three types, COUNT, COUNT(*) and COUNT DISTINCT. With multiDistinct the
// last spec is a COUNT DISTINCT holding several values per group; a saved
// distinct set is written in map order, so only results are compared for
// it. Without, the DISTINCT argument is a group key — one value per group —
// and the saved bytes are deterministic.
func aggStateSpecs(multiDistinct bool) []plan.AggSpec {
	x, y, z := expr.Col(4, vector.TypeFloat64), expr.Col(5, vector.TypeInt64), expr.Col(6, vector.TypeString)
	specs := []plan.AggSpec{
		plan.Sum(x, "sx"), plan.Sum(y, "sy"), plan.Avg(x, "ax"),
		plan.Min(z, "mnz"), plan.Max(expr.Col(1, vector.TypeDate), "mxd"), plan.Min(x, "mnx"), plan.Max(y, "mxy"),
		plan.Count(y, "cy"), plan.CountStar("n"),
		plan.CountDistinct(expr.Col(0, vector.TypeInt64), "dk"),
	}
	if multiDistinct {
		specs = append(specs, plan.CountDistinct(z, "dz"))
	}
	return specs
}

func aggStateSink(t *testing.T, specs []plan.AggSpec) *FlatAggSink {
	t.Helper()
	keys := []expr.Expr{
		expr.Col(0, vector.TypeInt64), expr.Col(1, vector.TypeDate),
		expr.Col(2, vector.TypeString), expr.Col(3, vector.TypeFloat64),
	}
	outTypes := append([]vector.Type{}, aggStateTypes[:4]...)
	for _, sp := range specs {
		outTypes = append(outTypes, sp.ResultType())
	}
	s, err := NewFlatAggSink(keys, specs, outTypes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// aggStateLocals feeds chunk i to local i mod n.
func aggStateLocals(t *testing.T, s *FlatAggSink, n int) []LocalState {
	t.Helper()
	locals := make([]LocalState, n)
	for i := range locals {
		locals[i] = s.MakeLocal()
	}
	for i, c := range aggStateChunks() {
		if err := s.Consume(locals[i%n], c); err != nil {
			t.Fatal(err)
		}
	}
	return locals
}

// saveLocalDigest is the sha256 of a local's SaveLocal bytes, in hex.
func saveLocalDigest(t *testing.T, s *FlatAggSink, ls LocalState) string {
	t.Helper()
	h := sha256.New()
	if err := s.SaveLocal(ls, vector.NewEncoder(h)); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bufferDigest is resultDigest of a bare row buffer.
func bufferDigest(t *testing.T, rb *RowBuffer) string {
	t.Helper()
	return resultDigest(t, &ResultSet{Buf: rb})
}

// aggStateRecord renders the pinned bytes as sha256 digests: every local's
// SaveLocal bytes and the Combine+Finalize result, for 1, 2 and 4 locals.
func aggStateRecord(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, n := range []int{1, 2, 4} {
		s := aggStateSink(t, aggStateSpecs(false))
		for i, ls := range aggStateLocals(t, s, n) {
			lines = append(lines, fmt.Sprintf("locals=%d local=%d %s", n, i, saveLocalDigest(t, s, ls)))
		}
		s = aggStateSink(t, aggStateSpecs(true))
		for _, ls := range aggStateLocals(t, s, n) {
			if err := s.Combine(ls); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Finalize(); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("locals=%d result %s", n, bufferDigest(t, s.Buffer())))
	}
	return lines
}

// TestAggStateMatchesRecordedBytes: the typed key columns move no byte —
// SaveLocal writes and Combine+Finalize produces exactly what the boxed
// table did.
func TestAggStateMatchesRecordedBytes(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "aggstate.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	got := aggStateRecord(t)
	if len(got) != len(want) {
		t.Fatalf("%d records, testdata has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: bytes differ from the recorded ones", want[i][:strings.LastIndexByte(want[i], ' ')])
		}
	}
}

// TestAggCombineAdoptsFirstLocal: Combine adopting its first local yields
// the bytes of merging every local into an empty table, for 1, 2 and 4
// locals, down to row order and float bits.
func TestAggCombineAdoptsFirstLocal(t *testing.T) {
	specs := aggStateSpecs(true)
	for _, n := range []int{1, 2, 4} {
		s := aggStateSink(t, specs)
		for _, ls := range aggStateLocals(t, s, n) {
			if err := s.Combine(ls); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Finalize(); err != nil {
			t.Fatal(err)
		}

		ref := aggStateSink(t, specs)
		into := newFlatAggTable(specs, ref.keyTypes())
		for _, ls := range aggStateLocals(t, ref, n) {
			into.merge(ls.(*flatAggLocal).table)
		}
		ref.global = into
		if err := ref.Finalize(); err != nil {
			t.Fatal(err)
		}
		if got, want := bufferDigest(t, s.Buffer()), bufferDigest(t, ref.Buffer()); got != want {
			t.Errorf("locals=%d: adopting Combine differs from merging into an empty table", n)
		}
	}
}

// TestRowBufferConcatTakesChunks: Concat into an empty buffer takes the
// other buffer's chunks; the result saves the bytes a copying concat does
// and keeps fixed-stride addressing across the seam.
func TestRowBufferConcatTakesChunks(t *testing.T) {
	types := []vector.Type{vector.TypeInt64, vector.TypeString, vector.TypeFloat64}
	build := func(rows, base int) *RowBuffer {
		b := NewRowBuffer(types)
		for i := base; i < base+rows; i++ {
			s := vector.NewString(fmt.Sprintf("s%d", i))
			if i%13 == 0 {
				s = vector.NewNull(vector.TypeString)
			}
			b.AppendRowValues(vector.NewInt64(int64(i)), s, vector.NewFloat64(float64(i)/3))
		}
		return b
	}
	parts := func() []*RowBuffer { return []*RowBuffer{build(2500, 0), build(700, 2500), build(3000, 3200)} }

	copied := NewRowBuffer(types)
	for _, p := range parts() {
		for i := 0; i < p.NumChunks(); i++ {
			copied.AppendChunk(p.Chunk(i))
		}
	}
	got := NewRowBuffer(types)
	for _, p := range parts() {
		got.Concat(p)
	}
	if bufferDigest(t, got) != bufferDigest(t, copied) {
		t.Fatal("Concat saves different bytes from a copying concat")
	}
	for _, r := range []int64{0, 2047, 2048, 2499, 2500, 3199, 3200, 6199} {
		if v := got.Value(r, 0); v.I != r {
			t.Errorf("row %d holds id %d", r, v.I)
		}
	}
}

// TestAggLoadRefusesRepeatedKey: a saved aggregate table never repeats a
// group key, so state bytes that do are refused, not merged.
func TestAggLoadRefusesRepeatedKey(t *testing.T) {
	s := aggStateSink(t, aggStateSpecs(false))
	ls := s.MakeLocal()
	if err := s.Consume(ls, aggStateChunks()[0]); err != nil {
		t.Fatal(err)
	}
	ls.(*flatAggLocal).table.n = 1 // keep the first group only
	var one bytes.Buffer
	if err := s.SaveLocal(ls, vector.NewEncoder(&one)); err != nil {
		t.Fatal(err)
	}
	group := one.Bytes()[1:] // after the one-byte group count
	twice := append(append([]byte{2}, group...), group...)
	if _, err := s.LoadLocal(vector.NewDecoder(bytes.NewReader(twice))); err == nil || !strings.Contains(err.Error(), "repeats") {
		t.Fatalf("LoadLocal of a repeated key = %v, want a refusal", err)
	}
	if _, err := s.LoadLocal(vector.NewDecoder(bytes.NewReader(one.Bytes()))); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRowBufferRefusesLoosePacking: Concat adopts a restored local's
// chunks as they are, so LoadRowBuffer refuses chunks that are not packed
// to ChunkCapacity.
func TestLoadRowBufferRefusesLoosePacking(t *testing.T) {
	types := []vector.Type{vector.TypeInt64}
	chunk := func(rows int) *vector.Chunk {
		c := vector.NewChunk(types)
		for i := 0; i < rows; i++ {
			c.AppendRowValues(vector.NewInt64(int64(i)))
		}
		return c
	}
	for _, tc := range []struct {
		rows []int
		ok   bool
	}{
		{[]int{vector.ChunkCapacity, 5}, true},
		{[]int{5, 5}, false},
		{[]int{vector.ChunkCapacity + 1}, false},
	} {
		b := NewRowBuffer(types)
		for _, n := range tc.rows {
			b.chunks = append(b.chunks, chunk(n))
			b.rows += int64(n)
		}
		var buf bytes.Buffer
		b.Save(vector.NewEncoder(&buf))
		_, err := LoadRowBuffer(vector.NewDecoder(bytes.NewReader(buf.Bytes())))
		if (err == nil) != tc.ok {
			t.Errorf("chunks of %v rows: LoadRowBuffer err = %v", tc.rows, err)
		}
	}
}
