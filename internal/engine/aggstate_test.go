package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

// The breaker state bytes are pinned: testdata/aggstate.txt holds the
// digests of the v3 SaveLocal bytes and of the Combine+Finalize results.
// The result digests were recorded from the boxed-key aggregate table the
// typed key columns replaced and have stayed put since; the state digests
// were re-recorded when state format v3 made them deterministic. There is
// no -update path.

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
// three types, COUNT, COUNT(*) and COUNT DISTINCT twice: over a group key,
// one value per group, and over a VARCHAR with several values per group.
func aggStateSpecs() []plan.AggSpec {
	x, y, z := expr.NamedCol(4, vector.TypeFloat64, ""), expr.NamedCol(5, vector.TypeInt64, ""), expr.NamedCol(6, vector.TypeString, "")
	return []plan.AggSpec{
		plan.Sum(x, "sx"), plan.Sum(y, "sy"), plan.Avg(x, "ax"),
		plan.Min(z, "mnz"), plan.Max(expr.NamedCol(1, vector.TypeDate, ""), "mxd"), plan.Min(x, "mnx"), plan.Max(y, "mxy"),
		plan.Count(y, "cy"), plan.CountStar("n"),
		plan.CountDistinct(expr.NamedCol(0, vector.TypeInt64, ""), "dk"), plan.CountDistinct(z, "dz"),
	}
}

func aggStateSink(t testing.TB, specs []plan.AggSpec) *FlatAggSink {
	t.Helper()
	keys := []expr.Expr{
		expr.NamedCol(0, vector.TypeInt64, ""), expr.NamedCol(1, vector.TypeDate, ""),
		expr.NamedCol(2, vector.TypeString, ""), expr.NamedCol(3, vector.TypeFloat64, ""),
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
func aggStateLocals(t testing.TB, s *FlatAggSink, n int) []LocalState {
	t.Helper()
	locals := make([]LocalState, n)
	for i := range locals {
		locals[i] = s.MakeLocal(nil)
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
		s := aggStateSink(t, aggStateSpecs())
		locals := aggStateLocals(t, s, n)
		for i, ls := range locals {
			lines = append(lines, fmt.Sprintf("locals=%d local=%d %s", n, i, saveLocalDigest(t, s, ls)))
		}
		gs := s.MakeGlobal(nil)
		for _, ls := range locals {
			if err := s.Combine(gs, ls); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Finalize(gs); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("locals=%d result %s", n, bufferDigest(t, s.Buffer(gs))))
	}
	return lines
}

// TestAggStateMatchesRecordedBytes: SaveLocal writes the recorded v3 bytes
// and Combine+Finalize produces exactly what the boxed table did.
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
	specs := aggStateSpecs()
	for _, n := range []int{1, 2, 4} {
		s := aggStateSink(t, specs)
		gs := s.MakeGlobal(nil)
		for _, ls := range aggStateLocals(t, s, n) {
			if err := s.Combine(gs, ls); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Finalize(gs); err != nil {
			t.Fatal(err)
		}

		ref := aggStateSink(t, specs)
		into := ref.newTable()
		for _, ls := range aggStateLocals(t, ref, n) {
			into.merge(ls.(*flatAggLocal).table, nil)
		}
		rg := &flatAggState{table: into}
		if err := ref.Finalize(rg); err != nil {
			t.Fatal(err)
		}
		if got, want := bufferDigest(t, s.Buffer(gs)), bufferDigest(t, ref.Buffer(rg)); got != want {
			t.Errorf("locals=%d: adopting Combine differs from merging into an empty table", n)
		}
	}
}

// TestAggTableGrowsByDoubling: the per-group arrays of an aggregate
// table grow together, each to exactly the capacity the table tracks, and
// that capacity doubles from flatAggInitGroups, in a merge as in a local.
// A loaded table holds its groups with no room to spare.
func TestAggTableGrowsByDoubling(t *testing.T) {
	backing := func(v *vector.Vector) int {
		return max(cap(v.Int64s()), cap(v.Float64s()), cap(v.Strings()), cap(v.Bools()))
	}
	check := func(what string, tb *flatAggTable, want int) {
		t.Helper()
		if tb.groupCap != want {
			t.Fatalf("%s: %d groups, capacity %d, want %d", what, tb.n, tb.groupCap, want)
		}
		caps := []int{cap(tb.hashes)}
		for _, k := range tb.keys {
			caps = append(caps, backing(k))
		}
		for i := range tb.cols {
			c := &tb.cols[i]
			switch c.fn {
			case fnMin, fnMax:
				caps = append(caps, backing(c.ext))
				continue
			case fnSumInt64:
				caps = append(caps, cap(c.sumI))
			case fnSumFloat64, fnAvgInt64, fnAvgFloat64:
				caps = append(caps, cap(c.sumF))
			}
			caps = append(caps, cap(c.count))
		}
		for i, c := range caps {
			if c != want {
				t.Errorf("%s: per-group array %d has capacity %d, want %d", what, i, c, want)
			}
		}
	}
	doubled := func(n int) int {
		c := flatAggInitGroups
		for c < n {
			c *= 2
		}
		return c
	}
	s := aggStateSink(t, aggStateSpecs())
	locals := aggStateLocals(t, s, 2)
	a, b := locals[0].(*flatAggLocal).table, locals[1].(*flatAggLocal).table
	check("first local", a, doubled(a.n))
	check("second local", b, doubled(b.n))
	loaded, err := s.LoadLocal(nil, vector.NewDecoder(bytes.NewReader(saveLocalBytes(t, s, locals[1]))))
	if err != nil {
		t.Fatal(err)
	}
	check("loaded local", loaded.(*flatAggLocal).table, max(b.n, flatAggInitGroups))
	gs := s.MakeGlobal(nil).(*flatAggState)
	for _, ls := range locals {
		if err := s.Combine(gs, ls); err != nil {
			t.Fatal(err)
		}
	}
	check("merged", gs.table, doubled(gs.table.n))
}

// TestRowBufferConcatTakesChunks: Concat keeps the rows of both buffers
// and their dense packing — every chunk but the last is full, so Value
// addresses every row — while it keeps the other buffer's full chunks by
// pointer and copies at most one partial chunk's rows per call.
func TestRowBufferConcatTakesChunks(t *testing.T) {
	types := []vector.Type{vector.TypeInt64, vector.TypeString, vector.TypeFloat64}
	build := func(rows, base int) *RowBuffer {
		b := NewRowBuffer(types)
		row := vector.NewChunk(types)
		for i := base; i < base+rows; i++ {
			s := vector.NewString(fmt.Sprintf("s%d", i))
			if i%13 == 0 {
				s = vector.NewNull(vector.TypeString)
			}
			row.Reset()
			row.AppendRowValues(vector.NewInt64(int64(i)), s, vector.NewFloat64(float64(i)/3))
			b.AppendChunk(row)
		}
		return b
	}
	got := NewRowBuffer(types)
	base := 0
	for _, rows := range []int{2500, 700, 3000, 0, 2048, 1500, 1900, 5} {
		p := build(rows, base)
		base += rows
		before := map[*vector.Chunk]int{} // every chunk's rows before the call
		var full []*vector.Chunk          // the other buffer's full chunks
		for _, b := range []*RowBuffer{got, p} {
			for i := 0; i < b.NumChunks(); i++ {
				before[b.Chunk(i)] = b.Chunk(i).Len()
				if b == p && b.Chunk(i).Full() {
					full = append(full, b.Chunk(i))
				}
			}
		}
		got.Concat(p)

		kept := map[*vector.Chunk]bool{}
		copied := got.Rows()
		for i := 0; i < got.NumChunks(); i++ {
			c := got.Chunk(i)
			if n, ok := before[c]; ok {
				kept[c] = true
				copied -= int64(n)
			}
			if i < got.NumChunks()-1 && !c.Full() {
				t.Fatalf("after %d rows: chunk %d of %d holds %d rows", base, i, got.NumChunks(), c.Len())
			}
		}
		for _, c := range full {
			if !kept[c] {
				t.Fatalf("after %d rows: a full chunk of the other buffer was not kept", base)
			}
		}
		if copied > vector.ChunkCapacity {
			t.Fatalf("after %d rows: Concat copied %d rows", base, copied)
		}
		if got.Rows() != int64(base) {
			t.Fatalf("after %d rows: Rows() = %d", base, got.Rows())
		}
		seen := make([]bool, base)
		for r := int64(0); r < got.Rows(); r++ {
			vals := got.Row(r)
			id := vals[0].I
			if id < 0 || id >= int64(base) || seen[id] {
				t.Fatalf("after %d rows: row %d holds id %d twice or out of range", base, r, id)
			}
			seen[id] = true
			s, f := vals[1], vals[2]
			if f.F != float64(id)/3 || s.Null != (id%13 == 0) || !s.Null && s.S != fmt.Sprintf("s%d", id) {
				t.Fatalf("after %d rows: row %d mixes id %d with %v and %v", base, r, id, s, f)
			}
		}
	}
}

// hostileState is local aggregate state that LoadLocal of aggStateSink
// must refuse, with the refusal it must give.
type hostileState struct {
	data []byte
	want string
}

// saveLocalBytes is a local's SaveLocal bytes.
func saveLocalBytes(tb testing.TB, s *FlatAggSink, ls LocalState) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := s.SaveLocal(ls, vector.NewEncoder(&buf)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// validAggState is the state of one local after aggStateChunks' first chunk.
func validAggState(tb testing.TB) []byte {
	s := aggStateSink(tb, aggStateSpecs())
	return saveLocalBytes(tb, s, aggStateLocals(tb, s, 4)[0])
}

// hostileAggStates edits the state of one local (validAggState) or of an
// empty table into bytes a saved table never holds.
func hostileAggStates(tb testing.TB) map[string]hostileState {
	edited := func(edit func(*flatAggTable)) []byte {
		s := aggStateSink(tb, aggStateSpecs())
		ls := aggStateLocals(tb, s, 4)[0]
		edit(ls.(*flatAggLocal).table)
		return saveLocalBytes(tb, s, ls)
	}
	s := aggStateSink(tb, aggStateSpecs())
	empty := saveLocalBytes(tb, s, s.MakeLocal(nil))
	// An empty table ends in its two DISTINCT sections, three bytes each:
	// no pairs, then an empty value column.
	claimPairs := func(n uint64) []byte {
		return binary.AppendUvarint(slices.Clone(empty[:len(empty)-6]), n)
	}
	dist := func(t *flatAggTable, spec int) *distinctSet { return t.cols[spec].dist }
	const dk, dz = 9, 10 // the DISTINCT specs: over key 0, and over z
	return map[string]hostileState{
		"repeated-key": {edited(func(t *flatAggTable) {
			// Group 1 takes group 0's key: (0, 19000, NULL, -0.0).
			k := t.keys
			k[0].Int64s()[1], k[1].Int64s()[1], k[3].Float64s()[1] = k[0].Int64s()[0], k[1].Int64s()[0], k[3].Float64s()[0]
			k[2].SetNull(1)
		}), "repeats an earlier key"},
		"pair-names-group-past-table": {edited(func(t *flatAggTable) {
			dist(t, dk).groups[0] = int32(t.n)
		}), "names group"},
		"repeated-pair": {edited(func(t *flatAggTable) {
			d := dist(t, dk)
			d.groups[1], d.vals.Int64s()[1] = d.groups[0], d.vals.Int64s()[0]
		}), "repeats an earlier one"},
		"null-distinct-value": {edited(func(t *flatAggTable) {
			dist(t, dz).vals.SetNull(0)
		}), "NULL"},
		"2^24-distinct-pairs": {claimPairs(1 << 24), "distinct pairs in 0 bytes"},
		"2^40-distinct-pairs": {claimPairs(1 << 40), "distinct pairs in 0 bytes"},
		"2^40-groups":         {binary.AppendUvarint(nil, 1<<40), "groups in 0 bytes"},
		"2^40-key-rows": {binary.AppendUvarint([]byte{1, byte(vector.TypeInt64)}, 1<<40),
			"rows in 0 bytes"},
		"key-of-another-type": {append([]byte{0, byte(vector.TypeString), 0}, empty[3:]...), "where 0 BIGINT belong"},
		"truncated":           {validAggState(tb)[:100], "rows in 27 bytes"},
	}
}

// TestAggLoadRefusesRepeatedKey: a saved aggregate table never repeats a
// group key, so state bytes that do are refused, not merged.
func TestAggLoadRefusesRepeatedKey(t *testing.T) {
	s := aggStateSink(t, aggStateSpecs())
	if _, err := s.LoadLocal(nil, vector.NewDecoder(bytes.NewReader(validAggState(t)))); err != nil {
		t.Fatal(err)
	}
	repeated := hostileAggStates(t)["repeated-key"].data
	if _, err := s.LoadLocal(nil, vector.NewDecoder(bytes.NewReader(repeated))); err == nil || !strings.Contains(err.Error(), "repeats") {
		t.Fatalf("LoadLocal of a repeated key = %v, want a refusal", err)
	}
}

// TestAggLoadRefusesHostileStates: every count is bounded by the bytes
// left, so a state claiming more elements than it holds is refused before
// anything is sized from it, and so are pairs a table never saves.
func TestAggLoadRefusesHostileStates(t *testing.T) {
	s := aggStateSink(t, aggStateSpecs())
	for name, h := range hostileAggStates(t) {
		_, err := s.LoadLocal(nil, vector.NewDecoder(bytes.NewReader(h.data)))
		if err == nil || !strings.Contains(err.Error(), h.want) {
			t.Errorf("%s (%d bytes): LoadLocal = %v, want %q", name, len(h.data), err, h.want)
		}
	}
}

// TestLoadAggStateCorpusCommitted keeps testdata/fuzz/FuzzLoadAggState in
// step with validAggState and hostileAggStates (RIVETER_GOLDEN=write
// regenerates it).
func TestLoadAggStateCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzLoadAggState")
	corpus := map[string][]byte{"valid": validAggState(t)}
	for name, h := range hostileAggStates(t) {
		corpus[name] = h.data
	}
	for name, data := range corpus {
		entry := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data))
		path := filepath.Join(dir, name)
		if os.Getenv("RIVETER_GOLDEN") == "write" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, entry, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, entry) {
			t.Errorf("corpus entry %s is missing or stale (%v)", name, err)
		}
	}
}

// FuzzLoadAggState feeds arbitrary bytes to LoadLocal of a sink over every
// aggregate function and key type, and requires an error or a table that
// works: its bytes save and load back to themselves, and it takes more
// rows, combines and finalizes without a panic. The seed corpus
// (testdata/fuzz/FuzzLoadAggState) is validAggState and hostileAggStates.
func FuzzLoadAggState(f *testing.F) {
	f.Add(validAggState(f))
	chunk := aggStateChunks()[1]
	f.Fuzz(func(t *testing.T, data []byte) {
		s := aggStateSink(t, aggStateSpecs())
		ls, err := s.LoadLocal(nil, vector.NewDecoder(bytes.NewReader(data)))
		if err != nil {
			return
		}
		saved := saveLocalBytes(t, s, ls)
		again, err := s.LoadLocal(nil, vector.NewDecoder(bytes.NewReader(saved)))
		if err != nil {
			t.Fatalf("a loaded table's own bytes do not load: %v", err)
		}
		if !bytes.Equal(saveLocalBytes(t, s, again), saved) {
			t.Fatal("a loaded table's bytes do not round-trip")
		}
		if err := s.Consume(ls, chunk); err != nil {
			t.Fatal(err)
		}
		gs := s.MakeGlobal(nil)
		for _, l := range []LocalState{ls, again} {
			if err := s.Combine(gs, l); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Finalize(gs); err != nil {
			t.Fatal(err)
		}
	})
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
