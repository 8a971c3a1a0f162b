package kernel

import (
	"math"
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
	nulls := make([]uint64, WordsFor(4))
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
// WordsFor(n) mean the uncovered tail is non-null, and must not panic.
func TestSelectTrueShortBitmap(t *testing.T) {
	n := 130 // needs 3 words; give 1
	vals := make([]bool, n)
	for i := range vals {
		vals[i] = i%2 == 0
	}
	nulls := make([]uint64, 1)
	nulls[0] = 1 << 4 // row 4 null
	sel := SelectTrue(vals, nulls, n, nil)
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
	if got := len(SelectTrue(vals, nil, n, sel)); got != n/2 {
		t.Errorf("no-null select = %d, want %d", got, n/2)
	}
}

func TestGatherNullBitsShortBitmap(t *testing.T) {
	src := []uint64{1 << 3} // covers rows 0..63 only; row 3 null
	sel := []int32{3, 100, 64, 2}
	dst := make([]uint64, WordsFor(len(sel)))
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
	sumF := make([]float64, 2)
	count := make([]int64, 2)
	SumInt64Update(groups, vals, sumI, sumF, count)
	if sumI[0] != 9 || sumI[1] != 6 || count[0] != 3 || count[1] != 2 {
		t.Errorf("SumInt64Update: sumI=%v count=%v", sumI, count)
	}
	if sumF[0] != 9 || sumF[1] != 6 {
		t.Errorf("SumInt64Update: sumF=%v", sumF)
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
	sumF := make([]float64, 1)
	count := make([]int64, 1)
	SumInt64UpdateNulls(groups, vals, nulls, sumI, sumF, count)
	if sumI[0] != wantSum || count[0] != wantCount {
		t.Errorf("SumInt64UpdateNulls: sum=%d count=%d, want %d/%d", sumI[0], count[0], wantSum, wantCount)
	}

	sumF2 := make([]float64, 1)
	count2 := make([]int64, 1)
	SumFloat64UpdateNulls(groups, fvals, nulls, sumF2, count2)
	if sumF2[0] != float64(wantSum) || count2[0] != wantCount {
		t.Errorf("SumFloat64UpdateNulls: sum=%v count=%d", sumF2[0], count2[0])
	}

	count3 := make([]int64, 1)
	CountUpdateNulls(groups, nulls, count3)
	if count3[0] != wantCount {
		t.Errorf("CountUpdateNulls = %d, want %d", count3[0], wantCount)
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

func TestHashBytes(t *testing.T) {
	if HashBytes(nil) != 0xcbf29ce484222325 {
		t.Error("empty hash must be the FNV offset basis")
	}
	if HashBytes([]byte("a")) == HashBytes([]byte("b")) {
		t.Error("distinct keys hash equal")
	}
}

func TestNullBitmapHelpers(t *testing.T) {
	if WordsFor(0) != 0 || WordsFor(1) != 1 || WordsFor(64) != 1 || WordsFor(65) != 2 {
		t.Error("WordsFor wrong")
	}
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
	bits := make([]uint64, WordsFor(len(rows)))
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
