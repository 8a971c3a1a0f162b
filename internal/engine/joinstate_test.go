package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/riveterdb/riveter/internal/expr"
	"github.com/riveterdb/riveter/internal/plan"
	"github.com/riveterdb/riveter/internal/vector"
)

// joinStateTypes is the build input of joinStateSink: a key column and two
// payload columns.
var joinStateTypes = []vector.Type{vector.TypeInt64, vector.TypeFloat64, vector.TypeString}

// joinStateKeys are the keys joinStateSink joins on over a one-column
// BIGINT probe or build input: k, a bare column, beside k + 1, computed.
func joinStateKeys() []expr.Expr {
	k := expr.NamedCol(0, vector.TypeInt64, "")
	return []expr.Expr{k, expr.Add(k, expr.Int(1))}
}

// joinStateSink is an inner join build on joinStateKeys; its buffer holds
// the computed key, then the three build columns.
func joinStateSink(tb testing.TB) *HashJoinBuildSink {
	tb.Helper()
	s, err := NewHashJoinBuildSink(plan.InnerJoin, joinStateKeys(), nil, 1, joinStateTypes, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// joinStateChunk is 40 build rows: keys 0-9, every seventh NULL.
func joinStateChunk() *vector.Chunk {
	c := vector.NewChunk(joinStateTypes)
	for i := 0; i < 40; i++ {
		k := vector.NewInt64(int64(i % 10))
		if i%7 == 3 {
			k = vector.NewNull(vector.TypeInt64)
		}
		c.AppendRowValues(k, vector.NewFloat64(float64(i)/4), vector.NewString(fmt.Sprintf("r%d", i)))
	}
	return c
}

// buildSinkState feeds chunk to a local of s and returns its SaveLocal
// bytes, which are also what SaveGlobal writes after Combine and Finalize.
func buildSinkState(tb testing.TB, s *HashJoinBuildSink, chunk *vector.Chunk) []byte {
	tb.Helper()
	ls := s.MakeLocal(nil)
	if err := s.Consume(ls, chunk); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveLocal(ls, vector.NewEncoder(&buf)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func validJoinState(tb testing.TB) []byte {
	return buildSinkState(tb, joinStateSink(tb), joinStateChunk())
}

// savedBuffer is the join-state encoding of a buffer of chunks: the row
// count rows, then the buffer with declared column types types.
func savedBuffer(rows uint64, types []vector.Type, chunks ...*vector.Chunk) []byte {
	b := NewRowBuffer(types)
	b.chunks = chunks
	var buf bytes.Buffer
	enc := vector.NewEncoder(&buf)
	enc.Uvarint(rows)
	b.Save(enc)
	return buf.Bytes()
}

// filledChunk is a chunk of the given types holding n rows of zero values.
func filledChunk(types []vector.Type, n int) *vector.Chunk {
	c := vector.NewChunk(types)
	for i := 0; i < n; i++ {
		vals := make([]vector.Value, len(types))
		for j, t := range types {
			vals[j] = vector.Value{Type: t}
		}
		c.AppendRowValues(vals...)
	}
	return c
}

// hostileJoinStates are join-build states joinStateSink must refuse, each
// with the refusal it must give.
func hostileJoinStates(tb testing.TB) map[string]hostileState {
	valid := validJoinState(tb)
	layout := joinStateSink(tb).rowTypes
	wrongKey := slices.Clone(layout)
	wrongKey[0] = vector.TypeString
	bareKeyOnly, err := NewHashJoinBuildSink(plan.InnerJoin, joinStateKeys()[:1], nil, 1, joinStateTypes, nil)
	if err != nil {
		tb.Fatal(err)
	}
	// valid's row count is one byte (40), the buffer follows.
	withCount := func(rows uint64) []byte { return append(binary.AppendUvarint(nil, rows), valid[1:]...) }
	return map[string]hostileState{
		"wrong-column-count":     {buildSinkState(tb, bareKeyOnly, joinStateChunk()), "where [BIGINT BIGINT DOUBLE VARCHAR] belong"},
		"key-of-another-type":    {savedBuffer(3, wrongKey, filledChunk(wrongKey, 3)), "where [BIGINT BIGINT DOUBLE VARCHAR] belong"},
		"chunk-of-another-type":  {savedBuffer(3, layout, filledChunk(wrongKey, 3)), "column 0 is VARCHAR, declared BIGINT"},
		"zero-width-claims-rows": {savedBuffer(5000, nil, filledChunk(nil, 0), filledChunk(nil, 0), filledChunk(nil, 0)), "row buffer of columns []"},
		"truncated":              {valid[:len(valid)/2], "EOF"},
		"loose-packing":          {savedBuffer(10, layout, filledChunk(layout, 5), filledChunk(layout, 5)), "packed to 2048 rows"},
		"count-mismatch":         {withCount(41), "row buffer of 40 rows claims 41"},
		"2^32-1-rows":            {withCount(1<<32 - 1), "hash join build of 4294967295 rows"},
	}
}

// TestJoinLoadRefusesHostileStates: LoadGlobal and LoadLocal refuse a
// join-build state of another layout, with a row count its buffer does not
// hold, or one the index cannot address.
func TestJoinLoadRefusesHostileStates(t *testing.T) {
	for name, h := range hostileJoinStates(t) {
		s := joinStateSink(t)
		if err := s.LoadGlobal(s.MakeGlobal(nil), vector.NewDecoder(bytes.NewReader(h.data))); err == nil || !strings.Contains(err.Error(), h.want) {
			t.Errorf("%s: LoadGlobal = %v, want %q", name, err, h.want)
		}
		if _, err := s.LoadLocal(nil, vector.NewDecoder(bytes.NewReader(h.data))); err == nil || !strings.Contains(err.Error(), h.want) {
			t.Errorf("%s: LoadLocal = %v, want %q", name, err, h.want)
		}
	}
}

// TestLoadJoinStateCorpusCommitted keeps testdata/fuzz/FuzzLoadJoinState
// in step with validJoinState and hostileJoinStates (RIVETER_GOLDEN=write
// regenerates it).
func TestLoadJoinStateCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzLoadJoinState")
	corpus := map[string][]byte{"valid": validJoinState(t)}
	for name, h := range hostileJoinStates(t) {
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

// probeJoinState probes build's global state gs, finalized or loaded, with
// keys 0-11 and a NULL, and returns the number of rows the inner join
// emits.
func probeJoinState(tb testing.TB, build *HashJoinBuildSink, gs GlobalState) int {
	tb.Helper()
	probe, err := NewHashJoinProbeOp(build, 0, joinStateKeys(), []vector.Type{vector.TypeInt64})
	if err != nil {
		tb.Fatal(err)
	}
	in := vector.NewChunk([]vector.Type{vector.TypeInt64})
	for k := int64(0); k < 12; k++ {
		in.AppendRowValues(vector.NewInt64(k))
	}
	in.AppendRowValues(vector.NewNull(vector.TypeInt64))
	rows := 0
	err = probe.Bind([]GlobalState{gs}, func(c *vector.Chunk) error {
		if c.NumCols() != 4 {
			tb.Fatalf("probe emitted %d columns, want 4", c.NumCols())
		}
		rows += c.Len()
		return nil
	})(in)
	if err != nil {
		tb.Fatal(err)
	}
	return rows
}

// FuzzLoadJoinState feeds arbitrary bytes to LoadGlobal and LoadLocal of a
// join build over a bare and a computed key, and requires an error or a
// state that probes without a panic: the global at once, the local after
// taking more rows, Combine and Finalize. The seed corpus
// (testdata/fuzz/FuzzLoadJoinState) is validJoinState and
// hostileJoinStates.
func FuzzLoadJoinState(f *testing.F) {
	f.Add(validJoinState(f))
	chunk := joinStateChunk()
	f.Fuzz(func(t *testing.T, data []byte) {
		s := joinStateSink(t)
		gs := s.MakeGlobal(nil)
		if err := s.LoadGlobal(gs, vector.NewDecoder(bytes.NewReader(data))); err == nil {
			probeJoinState(t, s, gs)
		}
		ls, err := s.LoadLocal(nil, vector.NewDecoder(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if err := s.Consume(ls, chunk); err != nil {
			t.Fatal(err)
		}
		gs = s.MakeGlobal(nil)
		if err := s.Combine(gs, ls); err != nil {
			t.Fatal(err)
		}
		if err := s.Finalize(gs); err != nil {
			t.Fatal(err)
		}
		probeJoinState(t, s, gs)
	})
}

// TestJoinBuildStoresEachColumnOnce pins the build layout: a bare key is
// read from its stored column, a computed key is stored ahead of the build
// columns, and a semi or anti join stores only its key columns and what
// its residual reads, which the residual then reads in the pair. Other
// joins store the build columns they output, all of them without an
// output list; a right-semi or right-anti join's pair holds only what the
// residual reads, of the probe columns too.
func TestJoinBuildStoresEachColumnOnce(t *testing.T) {
	in := []vector.Type{vector.TypeInt64, vector.TypeFloat64, vector.TypeString, vector.TypeDate}
	k, v := expr.NamedCol(0, vector.TypeInt64, ""), expr.NamedCol(1, vector.TypeFloat64, "")
	probeV := expr.NamedCol(0, vector.TypeFloat64, "") // over a one-column probe
	buildS := expr.NamedCol(1+2, vector.TypeString, "")
	for _, tc := range []struct {
		name     string
		jt       plan.JoinType
		keys     []expr.Expr
		extra    expr.Expr
		out      []int
		rowTypes []vector.Type
		keyCols  []int
		probe    []int
		pairCols []int
		residual string
	}{
		{"inner, bare key", plan.InnerJoin, []expr.Expr{k}, nil, nil,
			in, []int{0}, []int{0}, []int{0, 1, 2, 3}, ""},
		{"inner, output of the probe column and the third", plan.InnerJoin, []expr.Expr{k}, nil, []int{0, 1 + 2},
			[]vector.Type{vector.TypeInt64, vector.TypeString}, []int{0}, []int{0}, []int{1}, ""},
		{"left outer, computed beside bare", plan.LeftOuterJoin, []expr.Expr{expr.Add(k, expr.Int(1)), v}, nil, nil,
			append([]vector.Type{vector.TypeInt64}, in...), []int{0, 2}, []int{0}, []int{1, 2, 3, 4}, ""},
		{"semi, two keys on one column", plan.SemiJoin, []expr.Expr{k, k}, nil, nil,
			in[:1], []int{0, 0}, nil, nil, ""},
		{"anti, residual over the third column", plan.AntiJoin, []expr.Expr{k}, expr.IsNull(buildS), nil,
			[]vector.Type{vector.TypeInt64, vector.TypeString}, []int{0}, nil, []int{1}, "(#0:VARCHAR IS NULL)"},
		{"semi, residual over the key column", plan.SemiJoin, []expr.Expr{k}, expr.Gt(probeV, expr.NamedCol(1, vector.TypeInt64, "")), nil,
			in[:1], []int{0}, []int{0}, []int{0}, "(#0:DOUBLE > cast(#1:BIGINT as DOUBLE))"},
		{"keyless semi", plan.SemiJoin, nil, nil, nil,
			nil, nil, nil, nil, ""},
		{"right anti, residual over the third column", plan.RightAntiJoin, []expr.Expr{k}, expr.IsNull(buildS), nil,
			in, []int{0}, nil, []int{2}, "(#0:VARCHAR IS NULL)"},
		{"right semi, computed key", plan.RightSemiJoin, []expr.Expr{expr.Add(k, expr.Int(1))}, nil, nil,
			append([]vector.Type{vector.TypeInt64}, in...), []int{0}, nil, nil, ""},
		{"right semi, output of the second column", plan.RightSemiJoin, []expr.Expr{k}, nil, []int{1},
			in[:2], []int{0}, nil, nil, ""},
	} {
		s, err := NewHashJoinBuildSink(tc.jt, tc.keys, tc.extra, 1, in, tc.out)
		if err != nil {
			t.Fatal(err)
		}
		residual := ""
		if s.residual != nil {
			residual = s.residual.String()
		}
		if !slices.Equal(s.rowTypes, tc.rowTypes) || !slices.Equal(s.keyCols, tc.keyCols) || !slices.Equal(s.probeCols, tc.probe) ||
			!slices.Equal(s.pairCols, tc.pairCols) || residual != tc.residual {
			t.Errorf("%s: rows %v, keys at %v, pair %v ++ %v, residual %q; want %v, %v, %v ++ %v, %q", tc.name,
				s.rowTypes, s.keyCols, s.probeCols, s.pairCols, residual, tc.rowTypes, tc.keyCols, tc.probe, tc.pairCols, tc.residual)
		}
	}
}

// TestKeylessSemiJoinKeepsRowsAcrossCheckpoint: a keyless semi or anti join
// without a residual stores no column, and a zero-width chunk saves no row
// count, so the build persists its count beside the buffer. Restored from
// a global state, or from a local one that takes more rows and is saved
// and loaded again, the build still decides every probe row.
func TestKeylessSemiJoinKeepsRowsAcrossCheckpoint(t *testing.T) {
	in := []vector.Type{vector.TypeInt64}
	for _, rows := range []int{0, 1, vector.ChunkCapacity, 3000} {
		for _, jt := range []plan.JoinType{plan.SemiJoin, plan.AntiJoin} {
			s, err := NewHashJoinBuildSink(jt, nil, nil, 1, in, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(s.rowTypes) != 0 {
				t.Fatalf("keyless %v build stores %v", jt, s.rowTypes)
			}
			state := buildSinkState(t, s, filledChunk(in, 0))
			if rows > 0 {
				c := filledChunk(in, min(rows, vector.ChunkCapacity))
				ls := s.MakeLocal(nil)
				for left := rows; left > 0; left -= c.Len() {
					if left < c.Len() {
						c = filledChunk(in, left)
					}
					if err := s.Consume(ls, c); err != nil {
						t.Fatal(err)
					}
				}
				var buf bytes.Buffer
				if err := s.SaveLocal(ls, vector.NewEncoder(&buf)); err != nil {
					t.Fatal(err)
				}
				state = buf.Bytes()
			}
			for _, global := range []bool{true, false} {
				r, _ := NewHashJoinBuildSink(jt, nil, nil, 1, in, nil)
				rg := r.MakeGlobal(nil)
				want := rows
				if global {
					err = r.LoadGlobal(rg, vector.NewDecoder(bytes.NewReader(state)))
				} else {
					// A restored local takes five more rows and goes
					// through one more checkpoint before it combines.
					want += 5
					var ls LocalState
					if ls, err = r.LoadLocal(nil, vector.NewDecoder(bytes.NewReader(state))); err != nil {
						t.Fatal(err)
					}
					if err := r.Consume(ls, filledChunk(in, 5)); err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					if err := r.SaveLocal(ls, vector.NewEncoder(&buf)); err != nil {
						t.Fatal(err)
					}
					if ls, err = r.LoadLocal(nil, vector.NewDecoder(&buf)); err == nil {
						if err = r.Combine(rg, ls); err == nil {
							err = r.Finalize(rg)
						}
					}
				}
				if err != nil {
					t.Fatalf("%v, %d rows, global %v: %v", jt, rows, global, err)
				}
				if got := rg.(*joinBuildState).buf.Rows(); got != int64(want) {
					t.Fatalf("%v, %d rows, global %v: restored %d rows, want %d", jt, rows, global, got, want)
				}
				probe, err := NewHashJoinProbeOp(r, 0, nil, in)
				if err != nil {
					t.Fatal(err)
				}
				out := 0
				count := func(c *vector.Chunk) error { out += c.Len(); return nil }
				if err := probe.Bind([]GlobalState{rg}, count)(filledChunk(in, 5)); err != nil {
					t.Fatal(err)
				}
				if wantOut := map[bool]int{true: 5, false: 0}[(want > 0) == (jt == plan.SemiJoin)]; out != wantOut {
					t.Errorf("%v, %d rows, global %v: %d of 5 probe rows out, want %d", jt, rows, global, out, wantOut)
				}
			}
		}
	}
}

// TestJoinBuildRowLimit: the index stores row ids plus one in 32 bits, so a
// build of 2^32-1 rows or more is an error from Finalize, not a wrap.
func TestJoinBuildRowLimit(t *testing.T) {
	s := joinStateSink(t)
	gs := s.MakeGlobal(nil).(*joinBuildState)
	gs.buf.rows = maxBuildRows
	if err := s.Finalize(gs); err == nil || !strings.Contains(err.Error(), "hash join build of 4294967295 rows") {
		t.Fatalf("Finalize of 2^32-1 rows = %v, want a refusal", err)
	}
}

// TestRowBufferSinksRefuseOtherLayout: every sink backed by a row buffer
// refuses, in LoadGlobal and LoadLocal, a buffer whose column types are not
// its own — a buffer it would address by position past its columns. The
// join build once took a one-column BIGINT buffer for a build with a
// (BIGINT, VARCHAR) payload and panicked in the probe.
func TestRowBufferSinksRefuseOtherLayout(t *testing.T) {
	narrow := []vector.Type{vector.TypeInt64}
	wide := []vector.Type{vector.TypeInt64, vector.TypeString}
	key := []expr.Expr{expr.NamedCol(0, vector.TypeInt64, "")}
	sortKeys := []plan.SortKey{{Expr: key[0]}}
	sinks := map[string]func(types []vector.Type) Sink{
		"join build": func(types []vector.Type) Sink {
			s, err := NewHashJoinBuildSink(plan.InnerJoin, key, nil, 1, types, nil)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"sort": func(types []vector.Type) Sink {
			s, err := NewSortSink(sortKeys, types)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"top-N": func(types []vector.Type) Sink {
			s, err := NewTopNSink(sortKeys, types, 5, 0)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"collector": func(types []vector.Type) Sink { return NewCollectorSink(types, -1) },
	}
	for name, mk := range sinks {
		from := mk(narrow)
		gs := from.MakeGlobal(nil)
		ls := from.MakeLocal(gs)
		if err := from.Consume(ls, filledChunk(narrow, 3)); err != nil {
			t.Fatal(err)
		}
		var local, global bytes.Buffer
		if err := from.SaveLocal(ls, vector.NewEncoder(&local)); err != nil {
			t.Fatal(err)
		}
		if err := from.Combine(gs, ls); err != nil {
			t.Fatal(err)
		}
		if err := from.Finalize(gs); err != nil {
			t.Fatal(err)
		}
		if err := from.SaveGlobal(gs, vector.NewEncoder(&global)); err != nil {
			t.Fatal(err)
		}
		for _, types := range [][]vector.Type{narrow, wide} {
			to := mk(types)
			errG := to.LoadGlobal(to.MakeGlobal(nil), vector.NewDecoder(bytes.NewReader(global.Bytes())))
			_, errL := to.LoadLocal(nil, vector.NewDecoder(bytes.NewReader(local.Bytes())))
			own := len(types) == len(narrow)
			if (errG == nil) != own || (errL == nil) != own {
				t.Errorf("%s over %v loading a %v state: LoadGlobal = %v, LoadLocal = %v", name, types, narrow, errG, errL)
			}
		}
	}
}

// markStateSink is the mark sink of a right-semi join built, by pipeline
// 0, on markStateBuildRows rows of joinStateChunk's layout, keyed on its
// first column, and probed by one BIGINT column: its bitmaps are two
// words, the second holding 36 rows. It returns a fresh global state of
// the sink beside it.
func markStateSink(tb testing.TB) (*HashJoinMarkSink, GlobalState) {
	tb.Helper()
	k := []expr.Expr{expr.NamedCol(0, vector.TypeInt64, "")}
	build, err := NewHashJoinBuildSink(plan.RightSemiJoin, k, nil, 1, joinStateTypes, nil)
	if err != nil {
		tb.Fatal(err)
	}
	bg := build.MakeGlobal(nil)
	ls := build.MakeLocal(bg)
	for range markStateBuildRows / 40 {
		if err := build.Consume(ls, joinStateChunk()); err != nil {
			tb.Fatal(err)
		}
	}
	if err := build.Combine(bg, ls); err != nil {
		tb.Fatal(err)
	}
	if err := build.Finalize(bg); err != nil {
		tb.Fatal(err)
	}
	s, err := NewHashJoinMarkSink(build, 0, k, []vector.Type{vector.TypeInt64})
	if err != nil {
		tb.Fatal(err)
	}
	return s, s.MakeGlobal([]GlobalState{bg})
}

// markStateBuildRows is three joinStateChunks.
const markStateBuildRows = 120

// markProbeChunk is probe keys 0-4 and a NULL.
func markProbeChunk() *vector.Chunk {
	in := vector.NewChunk([]vector.Type{vector.TypeInt64})
	for k := int64(0); k < 5; k++ {
		in.AppendRowValues(vector.NewInt64(k))
	}
	in.AppendRowValues(vector.NewNull(vector.TypeInt64))
	return in
}

// validMarkState is the SaveLocal bytes of a local that took
// markProbeChunk.
func validMarkState(tb testing.TB) []byte {
	tb.Helper()
	s, gs := markStateSink(tb)
	ls := s.MakeLocal(gs)
	if err := s.Consume(ls, markProbeChunk()); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveLocal(ls, vector.NewEncoder(&buf)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// savedBitmap is the mark-state encoding of the given words.
func savedBitmap(words ...uint64) []byte {
	b := binary.AppendUvarint(nil, uint64(len(words)))
	for _, w := range words {
		b = binary.AppendUvarint(b, w)
	}
	return b
}

// hostileMarkStates are mark-sink locals markStateSink must refuse, each
// with the refusal it must give.
func hostileMarkStates(tb testing.TB) map[string]hostileState {
	valid := validMarkState(tb)
	return map[string]hostileState{
		"short":           {savedBitmap(^uint64(0)), "mark bitmap of 1 words for 120 build rows, want 2"},
		"long":            {savedBitmap(0, 0, 0), "mark bitmap of 3 words for 120 build rows, want 2"},
		"past-last-row":   {savedBitmap(0, 1<<56), "marks a row past the 120 build rows"},
		"truncated":       {valid[:len(valid)-1], "EOF"},
		"huge-word-count": {binary.AppendUvarint(nil, 1<<62), "mark bitmap of 4611686018427387904 words"},
	}
}

// TestMarkLoadRefusesHostileStates: LoadLocal refuses a mark bitmap of
// another length than the build's rows need, one marking a row past the
// last, and a truncated one; the valid one loads and keeps its marks.
func TestMarkLoadRefusesHostileStates(t *testing.T) {
	for name, h := range hostileMarkStates(t) {
		s, gs := markStateSink(t)
		if _, err := s.LoadLocal(gs, vector.NewDecoder(bytes.NewReader(h.data))); err == nil || !strings.Contains(err.Error(), h.want) {
			t.Errorf("%s: LoadLocal = %v, want %q", name, err, h.want)
		}
	}
	s, gs := markStateSink(t)
	ls, err := s.LoadLocal(gs, vector.NewDecoder(bytes.NewReader(validMarkState(t))))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Combine(gs, ls); err != nil {
		t.Fatal(err)
	}
	if err := s.Finalize(gs); err != nil {
		t.Fatal(err)
	}
	// Of each 40-row chunk, the 20 rows of keys 0-4 less the four whose key
	// is NULL (rows 3, 10, 24 and 31): 16 rows a chunk.
	if got, want := s.Buffer(gs).Rows(), int64(markStateBuildRows/40*16); got != want {
		t.Errorf("restored marks keep %d build rows, want %d", got, want)
	}
}

// TestMarkCombineUnitesWorkers: each worker marks the build rows its own
// probe rows match, and Combine keeps every worker's marks. Two workers
// probing keys {0, 1} and {2, 3} keep the rows one worker probing keys
// 0-3 keeps, and a right-anti join keeps the others.
func TestMarkCombineUnitesWorkers(t *testing.T) {
	probe := func(keys ...int64) *vector.Chunk {
		in := vector.NewChunk([]vector.Type{vector.TypeInt64})
		for _, k := range keys {
			in.AppendRowValues(vector.NewInt64(k))
		}
		return in
	}
	kept := func(anti bool, chunks ...*vector.Chunk) int64 {
		s, gs := markStateSink(t)
		s.anti = anti
		for _, c := range chunks {
			ls := s.MakeLocal(gs)
			if err := s.Consume(ls, c); err != nil {
				t.Fatal(err)
			}
			if err := s.Combine(gs, ls); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Finalize(gs); err != nil {
			t.Fatal(err)
		}
		return s.Buffer(gs).Rows()
	}
	one := kept(false, probe(0, 1, 2, 3))
	if two := kept(false, probe(0, 1), probe(2, 3)); two != one || one == 0 {
		t.Errorf("right semi: two workers keep %d build rows, one worker %d", two, one)
	}
	if anti := kept(true, probe(0, 1), probe(2, 3)); anti != markStateBuildRows-one {
		t.Errorf("right anti: two workers keep %d build rows, want %d", anti, markStateBuildRows-one)
	}
}

// TestLoadMarkStateCorpusCommitted keeps testdata/fuzz/FuzzLoadMarkState
// in step with validMarkState and hostileMarkStates (RIVETER_GOLDEN=write
// regenerates it).
func TestLoadMarkStateCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzLoadMarkState")
	corpus := map[string][]byte{"valid": validMarkState(t)}
	for name, h := range hostileMarkStates(t) {
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

// FuzzLoadMarkState feeds arbitrary bytes to LoadLocal and LoadGlobal of
// markStateSink and requires an error or a state that runs on without a
// panic: a loaded local takes more probe rows, combines and finalizes
// into at most every build row, and a loaded global is scanned. The seed
// corpus (testdata/fuzz/FuzzLoadMarkState) is validMarkState and
// hostileMarkStates.
func FuzzLoadMarkState(f *testing.F) {
	f.Add(validMarkState(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, gs := markStateSink(t)
		if ls, err := s.LoadLocal(gs, vector.NewDecoder(bytes.NewReader(data))); err == nil {
			if err := s.Consume(ls, markProbeChunk()); err != nil {
				t.Fatal(err)
			}
			if err := s.Combine(gs, ls); err != nil {
				t.Fatal(err)
			}
			if err := s.Finalize(gs); err != nil {
				t.Fatal(err)
			}
			if rows := s.Buffer(gs).Rows(); rows > markStateBuildRows {
				t.Fatalf("finalized %d rows of a %d-row build", rows, markStateBuildRows)
			}
		}
		s, gs = markStateSink(t)
		if err := s.LoadGlobal(gs, vector.NewDecoder(bytes.NewReader(data))); err == nil {
			src := NewSinkSource(s, 0, s.OutTypes()).bind([]GlobalState{gs})
			chunk := vector.NewViewChunk(s.OutTypes())
			for m := int64(0); m < src.MorselCount(); m++ {
				if _, err := src.ReadMorsel(m, chunk); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}
