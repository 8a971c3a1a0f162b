package kernel

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// cmp3 mirrors the engine's three-way float comparison: NaN pairs order as
// equal. The generated float compare kernels must agree with it on every
// operator for every input pair.
func cmp3(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func TestFloatCompareKernelsMatchCmp3(t *testing.T) {
	nan := math.NaN()
	vals := []float64{-1, 0, math.Copysign(0, -1), 1, nan, math.Inf(1), math.Inf(-1)}
	var a, b []float64
	for _, x := range vals {
		for _, y := range vals {
			a = append(a, x)
			b = append(b, y)
		}
	}
	n := len(a)
	dst := make([]bool, n)
	ops := []struct {
		name string
		run  func()
		want func(c int) bool
	}{
		{"eq", func() { EqFloat64(dst, a, b) }, func(c int) bool { return c == 0 }},
		{"ne", func() { NeFloat64(dst, a, b) }, func(c int) bool { return c != 0 }},
		{"lt", func() { LtFloat64(dst, a, b) }, func(c int) bool { return c < 0 }},
		{"le", func() { LeFloat64(dst, a, b) }, func(c int) bool { return c <= 0 }},
		{"gt", func() { GtFloat64(dst, a, b) }, func(c int) bool { return c > 0 }},
		{"ge", func() { GeFloat64(dst, a, b) }, func(c int) bool { return c >= 0 }},
	}
	for _, op := range ops {
		op.run()
		for i := 0; i < n; i++ {
			if want := op.want(cmp3(a[i], b[i])); dst[i] != want {
				t.Errorf("%s(%v, %v) = %v, want %v", op.name, a[i], b[i], dst[i], want)
			}
		}
	}
}

func TestArithKernels(t *testing.T) {
	a := []int64{1, 2, 3, math.MaxInt64}
	b := []int64{10, -2, 0, 1}
	dst := make([]int64, 4)
	AddInt64(dst, a, b)
	if dst[0] != 11 || dst[1] != 0 || dst[2] != 3 || dst[3] != math.MinInt64 {
		t.Errorf("AddInt64 = %v", dst)
	}
	MulInt64Scalar(dst, a, 3)
	if dst[0] != 3 || dst[2] != 9 {
		t.Errorf("MulInt64Scalar = %v", dst)
	}
	SubInt64ScalarL(dst, 100, a)
	if dst[0] != 99 || dst[1] != 98 {
		t.Errorf("SubInt64ScalarL = %v", dst)
	}
}

func TestDivFloat64FoldsZeroDivisorsToNull(t *testing.T) {
	a := []float64{10, 20, 30, -5}
	b := []float64{2, 0, -3, 0}
	dst := make([]float64, 4)
	nulls := make([]uint64, 1)
	DivFloat64(dst, a, b, nulls)
	if dst[0] != 5 || dst[2] != -10 {
		t.Errorf("DivFloat64 = %v", dst)
	}
	for i, wantNull := range []bool{false, true, false, true} {
		if NullAt(nulls, i) != wantNull {
			t.Errorf("row %d null = %v, want %v", i, !wantNull, wantNull)
		}
	}
	// Null rows must hold zero backing (the -0.0 from 0/-x included).
	if dst[1] != 0 || dst[3] != 0 || math.Signbit(dst[3]) {
		t.Errorf("null rows hold %v, %v; want +0, +0", dst[1], dst[3])
	}
}

// TestSelectTrueShortBitmap pins the covered-split: bitmaps shorter than
// n rows mean the uncovered tail is non-null, and must not panic.
func TestSelectTrueShortBitmap(t *testing.T) {
	n := 130 // needs 3 words; give 1
	vals := make([]bool, n)
	for i := range vals {
		vals[i] = i%2 == 0
	}
	nulls := make([]uint64, 1)
	nulls[0] = 1 << 4 // row 4 null
	sel := SelectTrue(make([]int32, n), vals, nulls, n)
	want := 0
	for i := 0; i < n; i += 2 {
		if i != 4 {
			want++
		}
	}
	if len(sel) != want {
		t.Errorf("len(sel) = %d, want %d", len(sel), want)
	}
	for _, s := range sel {
		if s == 4 || s%2 != 0 {
			t.Errorf("selected row %d", s)
		}
	}
	// Empty bitmap fast path.
	if got := len(SelectTrue(sel[:cap(sel)], vals, nil, n)); got != n/2 {
		t.Errorf("no-null select = %d, want %d", got, n/2)
	}
}

func TestGatherNullBitsShortBitmap(t *testing.T) {
	src := []uint64{1 << 3} // covers rows 0..63 only; row 3 null
	sel := []int32{3, 100, 64, 2}
	dst := make([]uint64, (len(sel)+63)/64)
	GatherNullBits(dst, src, sel)
	wantNull := []bool{true, false, false, false}
	for j, w := range wantNull {
		if NullAt(dst, j) != w {
			t.Errorf("gathered row %d null = %v, want %v", j, !w, w)
		}
	}
}

func TestZeroNulls(t *testing.T) {
	dst := []float64{1, 2, 3, 4}
	nulls := []uint64{0b1010}
	ZeroNullsFloat64(dst, nulls)
	if dst[0] != 1 || dst[1] != 0 || dst[2] != 3 || dst[3] != 0 {
		t.Errorf("ZeroNullsFloat64 = %v", dst)
	}
	// Bits beyond len(dst) must not panic.
	s := []string{"a", "b"}
	ZeroNullsString(s, []uint64{0b110})
	if s[0] != "a" || s[1] != "" {
		t.Errorf("ZeroNullsString = %v", s)
	}
}

func TestGroupedAggKernels(t *testing.T) {
	groups := []int32{0, 1, 0, 1, 0}
	vals := []int64{1, 2, 3, 4, 5}
	sumI := make([]int64, 2)
	count := make([]int64, 2)
	SumInt64Update(groups, vals, nil, sumI, count)
	if sumI[0] != 9 || sumI[1] != 6 || count[0] != 3 || count[1] != 2 {
		t.Errorf("SumInt64Update: sumI=%v count=%v", sumI, count)
	}
	sumF := make([]float64, 2)
	clear(count)
	AvgInt64Update(groups, vals, nil, sumF, count)
	if sumF[0] != 9 || sumF[1] != 6 || count[0] != 3 || count[1] != 2 {
		t.Errorf("AvgInt64Update: sumF=%v count=%v", sumF, count)
	}
}

// TestGroupedAggKernelsShortBitmap feeds a null bitmap covering only a prefix
// of the rows: covered rows honor their bits, uncovered rows always fold.
func TestGroupedAggKernelsShortBitmap(t *testing.T) {
	n := 70 // one bitmap word covers 64 rows
	groups := make([]int32, n)
	vals := make([]int64, n)
	fvals := make([]float64, n)
	for i := range vals {
		vals[i] = int64(i)
		fvals[i] = float64(i)
	}
	nulls := []uint64{1 << 5} // row 5 null; rows 64..69 uncovered
	var wantSum, wantCount int64
	for i := 0; i < n; i++ {
		if i != 5 {
			wantSum += int64(i)
			wantCount++
		}
	}

	sumI := make([]int64, 1)
	count := make([]int64, 1)
	SumInt64Update(groups, vals, nulls, sumI, count)
	if sumI[0] != wantSum || count[0] != wantCount {
		t.Errorf("SumInt64Update: sum=%d count=%d, want %d/%d", sumI[0], count[0], wantSum, wantCount)
	}

	sumF2 := make([]float64, 1)
	count2 := make([]int64, 1)
	SumFloat64Update(groups, fvals, nulls, sumF2, count2)
	if sumF2[0] != float64(wantSum) || count2[0] != wantCount {
		t.Errorf("SumFloat64Update: sum=%v count=%d", sumF2[0], count2[0])
	}

	count3 := make([]int64, 1)
	CountUpdate(groups, nulls, count3)
	if count3[0] != wantCount {
		t.Errorf("CountUpdate = %d, want %d", count3[0], wantCount)
	}
}

// TestMinMaxKernels: a group's bit in empty is set until its first non-NULL
// value, which then wins whatever the accumulator's slot held; a NULL row
// is skipped; a NaN never replaces a value, as vector.Value.Compare orders
// it.
func TestMinMaxKernels(t *testing.T) {
	groups := []int32{0, 1, 0, 1, 0, 2}
	nulls := []uint64{1 << 4} // row 4 NULL
	empty := []uint64{0b111}
	acc := []int64{-100, -100, -100}
	MinInt64Update(groups, []int64{5, 7, 3, 9, -50, 4}, nulls, acc, empty)
	if acc[0] != 3 || acc[1] != 7 || acc[2] != 4 || empty[0] != 0 {
		t.Errorf("MinInt64Update: acc=%v empty=%b", acc, empty[0])
	}

	empty = []uint64{0b11}
	facc := make([]float64, 2)
	MaxFloat64Update([]int32{0, 0, 1, 1}, []float64{math.NaN(), 2, 1, math.NaN()}, nil, facc, empty)
	if !math.IsNaN(facc[0]) || facc[1] != 1 || empty[0] != 0 {
		t.Errorf("MaxFloat64Update: acc=%v empty=%b", facc, empty[0])
	}

	empty = []uint64{0b11}
	sacc := make([]string, 2)
	MaxStringUpdate([]int32{0, 0, 1}, []string{"b", "c", "a"}, nil, sacc, empty)
	bacc := make([]bool, 2)
	bempty := []uint64{0b10} // group 0 already holds false
	MinBoolUpdate([]int32{0, 1, 1}, []bool{true, true, false}, nil, bacc, bempty)
	if sacc[0] != "c" || sacc[1] != "a" || bacc[0] || bacc[1] || bempty[0] != 0 {
		t.Errorf("MaxStringUpdate = %q, MinBoolUpdate = %v", sacc, bacc)
	}
}

func TestBoolKernels(t *testing.T) {
	a := []bool{true, true, false, false}
	b := []bool{true, false, true, false}
	dst := make([]bool, 4)
	AndBool(dst, a, b)
	if dst[0] != true || dst[1] || dst[2] || dst[3] {
		t.Errorf("AndBool = %v", dst)
	}
	OrBool(dst, a, b)
	if !dst[0] || !dst[1] || !dst[2] || dst[3] {
		t.Errorf("OrBool = %v", dst)
	}
	NotBool(dst, a)
	if dst[0] || dst[1] || !dst[2] || !dst[3] {
		t.Errorf("NotBool = %v", dst)
	}
}

func TestGatherAndFill(t *testing.T) {
	src := []string{"a", "b", "c", "d"}
	sel := []int32{3, 1}
	dst := make([]string, 2)
	GatherString(dst, src, sel)
	if dst[0] != "d" || dst[1] != "b" {
		t.Errorf("GatherString = %v", dst)
	}
	f := make([]float64, 3)
	FillFloat64(f, 2.5)
	for _, x := range f {
		if x != 2.5 {
			t.Errorf("FillFloat64 = %v", f)
		}
	}
}

func TestNullBitmapHelpers(t *testing.T) {
	nulls := make([]uint64, 2)
	SetNull(nulls, 70)
	if !NullAt(nulls, 70) || NullAt(nulls, 69) {
		t.Error("SetNull/NullAt wrong")
	}
	if NullAt(nulls[:1], 70) {
		t.Error("short bitmap must read as non-null")
	}
	dst := []uint64{1, 0}
	OrWords(dst, []uint64{2})
	if dst[0] != 3 || dst[1] != 0 {
		t.Error("OrWords wrong")
	}
	if AnyWord(dst) != true || AnyWord([]uint64{0, 0}) {
		t.Error("AnyWord wrong")
	}
}

// TestGatherChunkedMatchesFlat holds the chunked gathers to a flat gather
// over the same rows, with chunks of 4 rows, a short last chunk, and null
// bitmaps that are nil or short in some chunks.
func TestGatherChunkedMatchesFlat(t *testing.T) {
	const shift = 2
	flat := []int64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	var chunks [][]int64
	for i := 0; i < len(flat); i += 1 << shift {
		chunks = append(chunks, flat[i:min(i+1<<shift, len(flat))])
	}
	nulls := [][]uint64{nil, {1 << 1}, {}} // only row 5 is null
	rows := []int64{9, 0, 5, 5, 3, 8, 1}
	dst := make([]int64, len(rows))
	GatherChunkedInt64(dst, chunks, rows, shift)
	bits := make([]uint64, (len(rows)+63)/64)
	GatherChunkedNullBits(bits, nulls, rows, shift)
	for j, r := range rows {
		if dst[j] != flat[r] {
			t.Errorf("row %d: got %d, want %d", r, dst[j], flat[r])
		}
		if NullAt(bits, j) != (r == 5) {
			t.Errorf("row %d: null bit %v", r, NullAt(bits, j))
		}
	}
}

// randomBools returns n bools, each true with probability one half.
func randomBools(r *rand.Rand, n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = r.IntN(2) == 1
	}
	return b
}

// TestConnectivesMatchTruthTable holds AndBool and OrBool to Go's && and
// || on every pair of operands, with dst a fresh slice and dst aliasing
// the first operand, as the program's fold runs them.
func TestConnectivesMatchTruthTable(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	a, b := randomBools(r, 1000), randomBools(r, 1000)
	for _, k := range []struct {
		name   string
		kernel func(dst, a, b []bool)
		want   func(x, y bool) bool
	}{
		{"and", AndBool, func(x, y bool) bool { return x && y }},
		{"or", OrBool, func(x, y bool) bool { return x || y }},
	} {
		dst := make([]bool, len(a))
		k.kernel(dst, a, b)
		inPlace := slices.Clone(a)
		k.kernel(inPlace, inPlace, b)
		for i := range a {
			if want := k.want(a[i], b[i]); dst[i] != want || inPlace[i] != want {
				t.Fatalf("%s(%v, %v) = %v (in place %v), want %v", k.name, a[i], b[i], dst[i], inPlace[i], want)
			}
		}
	}
}

// TestSelectionsShortBitmap: rows past a short null bitmap are not NULL,
// in the dense and the refining forms of the NULL and TRUE selections.
func TestSelectionsShortBitmap(t *testing.T) {
	const n = 130
	nulls := []uint64{1<<3 | 1<<40} // covers rows 0..63
	vals := make([]bool, n)
	for i := range vals {
		vals[i] = i%2 == 1 || i == 40
	}
	every := SelectAll(make([]int32, n), n)
	odd := func(i int32) bool { return i%2 == 1 }
	for _, tc := range []struct {
		name string
		got  []int32
		keep func(i int32) bool
	}{
		{"select-null", SelectNulls(make([]int32, n), nulls, n, false), func(i int32) bool { return i == 3 || i == 40 }},
		{"select-not-null", SelectNulls(make([]int32, n), nulls, n, true), func(i int32) bool { return i != 3 && i != 40 }},
		{"refine-null", RefineNulls(slices.Clone(every), nulls, false), func(i int32) bool { return i == 3 || i == 40 }},
		{"refine-not-null", RefineNulls(slices.Clone(every), nulls, true), func(i int32) bool { return i != 3 && i != 40 }},
		{"select-true", SelectTrue(make([]int32, n), vals, nulls, n), func(i int32) bool { return odd(i) && i != 3 }},
		{"refine-true", RefineTrue(slices.Clone(every), vals, nulls), func(i int32) bool { return odd(i) && i != 3 }},
	} {
		var want []int32
		for _, i := range every {
			if tc.keep(i) {
				want = append(want, i)
			}
		}
		if !slices.Equal(tc.got, want) {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, want)
		}
	}
}

// BenchmarkConnectives times AndBool and OrBool over one morsel of
// operands that are true half the time, at random.
func BenchmarkConnectives(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 2))
	x, y := randomBools(r, 1024), randomBools(r, 1024)
	dst := make([]bool, 1024)
	for _, k := range []struct {
		name   string
		kernel func(dst, a, b []bool)
	}{{"AndBool", AndBool}, {"OrBool", OrBool}} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.kernel(dst, x, y)
			}
		})
	}
}
