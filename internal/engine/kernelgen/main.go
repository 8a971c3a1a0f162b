// Command kernelgen emits the type-specialized compute kernels in
// internal/engine/kernel. The kernels are deliberately trivial — tight loops
// over raw slices with no interface dispatch, no bounds-check-defeating
// cleverness, and no per-row allocation — so the generator is the single
// source of truth for the op × type matrix and the files stay reviewable.
//
// Run via `go generate ./internal/engine/kernel` (see kernel/doc.go); CI's
// generate-check job fails on any diff between the generator's output and
// the committed files.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
	"path/filepath"
)

const header = `// Code generated by kernelgen. DO NOT EDIT.

package kernel

`

type typ struct {
	name string // exported suffix: Int64
	gt   string // Go type: int64
	zero string // zero literal
}

var numTypes = []typ{
	{"Int64", "int64", "0"},
	{"Float64", "float64", "0"},
}

var allTypes = []typ{
	{"Int64", "int64", "0"},
	{"Float64", "float64", "0"},
	{"String", "string", `""`},
	{"Bool", "bool", "false"},
}

type binOp struct {
	name string // Add
	op   string // +
}

var arithOps = []binOp{
	{"Add", "+"},
	{"Sub", "-"},
	{"Mul", "*"},
}

var cmpOps = []binOp{
	{"Eq", "=="},
	{"Ne", "!="},
	{"Lt", "<"},
	{"Le", "<="},
	{"Gt", ">"},
	{"Ge", ">="},
}

func main() {
	out := "."
	if len(os.Args) > 1 {
		out = os.Args[1]
	}
	emit(out, "arith_gen.go", genArith())
	emit(out, "compare_gen.go", genCompare())
	emit(out, "gather_gen.go", genGather())
	emit(out, "fill_gen.go", genFill())
	emit(out, "zero_gen.go", genZero())
	emit(out, "bool_gen.go", genBool())
	emit(out, "agg_gen.go", genAgg())
}

func emit(dir, name, body string) {
	src, err := format.Source([]byte(header + body))
	if err != nil {
		log.Fatalf("kernelgen: %s does not format: %v", name, err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, src, 0o644); err != nil {
		log.Fatalf("kernelgen: %v", err)
	}
	fmt.Printf("kernelgen: wrote %s\n", path)
}

// genArith emits Add/Sub/Mul over int64 and float64 — vec⊕vec, vec⊕scalar
// and scalar⊕vec forms — plus float division, which folds the SQL
// divide-by-zero→NULL rule into the kernel (zeroed backing, null bit set).
func genArith() string {
	var b bytes.Buffer
	for _, t := range numTypes {
		for _, op := range arithOps {
			fmt.Fprintf(&b, `// %[1]s%[2]s computes dst[i] = a[i] %[3]s b[i].
func %[1]s%[2]s(dst, a, b []%[4]s) {
	for i := range dst {
		dst[i] = a[i] %[3]s b[i]
	}
}

// %[1]s%[2]sScalar computes dst[i] = a[i] %[3]s b.
func %[1]s%[2]sScalar(dst, a []%[4]s, b %[4]s) {
	for i := range dst {
		dst[i] = a[i] %[3]s b
	}
}

// %[1]s%[2]sScalarL computes dst[i] = a %[3]s b[i].
func %[1]s%[2]sScalarL(dst []%[4]s, a %[4]s, b []%[4]s) {
	for i := range dst {
		dst[i] = a %[3]s b[i]
	}
}

`, op.name, t.name, op.op, t.gt)
		}
	}
	b.WriteString(`// DivFloat64 computes dst[i] = a[i] / b[i]; a zero divisor yields NULL
// (bit set in nulls, which must cover every row) with zeroed backing.
func DivFloat64(dst, a, b []float64, nulls []uint64) {
	for i := range dst {
		if b[i] == 0 {
			dst[i] = 0
			nulls[i>>6] |= 1 << (uint(i) & 63)
		} else {
			dst[i] = a[i] / b[i]
		}
	}
}

// DivFloat64Scalar computes dst[i] = a[i] / b with the same zero-divisor rule.
func DivFloat64Scalar(dst, a []float64, b float64, nulls []uint64) {
	if b == 0 {
		for i := range dst {
			dst[i] = 0
			nulls[i>>6] |= 1 << (uint(i) & 63)
		}
		return
	}
	for i := range dst {
		dst[i] = a[i] / b
	}
}

// DivFloat64ScalarL computes dst[i] = a / b[i] with the same zero-divisor rule.
func DivFloat64ScalarL(dst []float64, a float64, b []float64, nulls []uint64) {
	for i := range dst {
		if b[i] == 0 {
			dst[i] = 0
			nulls[i>>6] |= 1 << (uint(i) & 63)
		} else {
			dst[i] = a / b[i]
		}
	}
}
`)
	return b.String()
}

// genCompare emits the six comparison ops over int64, float64 and string in
// vec∘vec and vec∘scalar forms. Scalar-on-the-left is handled by the caller
// flipping the operator (s < b[i] ⇔ b[i] > s), so no ScalarL forms exist.
//
// Float comparisons are written in terms of < and > only — a three-way
// compare, as vector.Value.Compare orders doubles everywhere else (sort,
// MIN/MAX, the scalar oracle): a NaN pair compares "equal" (neither < nor >
// holds), and the kernels must agree with that.
func genCompare() string {
	var b bytes.Buffer
	types := []typ{{"Int64", "int64", "0"}, {"Float64", "float64", "0"}, {"String", "string", `""`}}
	// cmp3-faithful float forms, indexed by op name.
	floatExpr := map[string][2]string{
		"Eq": {"!(%[1]s < %[2]s) && !(%[1]s > %[2]s)", "cmp3-equal"},
		"Ne": {"%[1]s < %[2]s || %[1]s > %[2]s", "cmp3-unequal"},
		"Lt": {"%[1]s < %[2]s", ""},
		"Le": {"!(%[1]s > %[2]s)", "cmp3: not greater"},
		"Gt": {"%[1]s > %[2]s", ""},
		"Ge": {"!(%[1]s < %[2]s)", "cmp3: not less"},
	}
	for _, t := range types {
		for _, op := range cmpOps {
			vecBody := fmt.Sprintf("a[i] %s b[i]", op.op)
			scaBody := fmt.Sprintf("a[i] %s b", op.op)
			if t.name == "Float64" {
				vecBody = fmt.Sprintf(floatExpr[op.name][0], "a[i]", "b[i]")
				scaBody = fmt.Sprintf(floatExpr[op.name][0], "a[i]", "b")
			}
			fmt.Fprintf(&b, `// %[1]s%[2]s computes dst[i] = a[i] %[3]s b[i] with three-way-compare semantics.
func %[1]s%[2]s(dst []bool, a, b []%[4]s) {
	for i := range dst {
		dst[i] = %[5]s
	}
}

// %[1]s%[2]sScalar computes dst[i] = a[i] %[3]s b with three-way-compare semantics.
func %[1]s%[2]sScalar(dst []bool, a []%[4]s, b %[4]s) {
	for i := range dst {
		dst[i] = %[6]s
	}
}

`, op.name, t.name, op.op, t.gt, vecBody, scaBody)
		}
	}
	return b.String()
}

// genGather emits selection-vector gathers for all four physical types,
// over one slice and over a column split into fixed-stride chunks.
func genGather() string {
	var b bytes.Buffer
	for _, t := range allTypes {
		fmt.Fprintf(&b, `// Gather%[1]s computes dst[j] = src[sel[j]] for every selected row.
func Gather%[1]s(dst, src []%[2]s, sel []int32) {
	for j, s := range sel {
		dst[j] = src[s]
	}
}

// GatherChunked%[1]s computes dst[j] = row rows[j] of a column held as
// chunks of 1<<shift rows each: src[r>>shift][r&(1<<shift-1)].
func GatherChunked%[1]s(dst []%[2]s, src [][]%[2]s, rows []int64, shift uint) {
	mask := int64(1)<<shift - 1
	for j, r := range rows {
		dst[j] = src[r>>shift][r&mask]
	}
}

`, t.name, t.gt)
	}
	return b.String()
}

// genFill emits constant-fill kernels for all four physical types.
func genFill() string {
	var b bytes.Buffer
	for _, t := range allTypes {
		fmt.Fprintf(&b, `// Fill%[1]s sets every row of dst to x.
func Fill%[1]s(dst []%[2]s, x %[2]s) {
	for i := range dst {
		dst[i] = x
	}
}

`, t.name, t.gt)
	}
	return b.String()
}

// genZero emits kernels restoring the zero-backing-under-null invariant
// after a bulk compute: every row whose null bit is set gets the zero value.
func genZero() string {
	var b bytes.Buffer
	b.WriteString("import \"math/bits\"\n\n")
	for _, t := range allTypes {
		fmt.Fprintf(&b, `// ZeroNulls%[1]s writes the zero value into every row whose null bit is set,
// restoring the zero-backing-under-null invariant after a bulk compute.
func ZeroNulls%[1]s(dst []%[2]s, nulls []uint64) {
	for w, word := range nulls {
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if i >= len(dst) {
				break
			}
			dst[i] = %[3]s
		}
	}
}

`, t.name, t.gt, t.zero)
	}
	return b.String()
}

// genBool emits the two-valued connective kernels used on the no-null fast
// path; three-valued logic with nulls stays on the caller's scalar path.
func genBool() string {
	return `// AndBool computes dst[i] = a[i] && b[i] (two-valued; no-null fast path).
func AndBool(dst, a, b []bool) {
	for i := range dst {
		dst[i] = a[i] && b[i]
	}
}

// OrBool computes dst[i] = a[i] || b[i] (two-valued; no-null fast path).
func OrBool(dst, a, b []bool) {
	for i := range dst {
		dst[i] = a[i] || b[i]
	}
}

// NotBool computes dst[i] = !a[i] (two-valued; no-null fast path).
func NotBool(dst, a []bool) {
	for i := range dst {
		dst[i] = !a[i]
	}
}
`
}

// genAgg emits the grouped fold kernels for the flat aggregate table:
// groups[i] is the dense group index of row i; the accumulator arrays are
// struct-of-arrays per aggregate spec. Integer sums maintain both the int64
// and float64 accumulators plus the non-null count, mirroring aggState.
func genAgg() string {
	var b bytes.Buffer
	b.WriteString(`// SumInt64Update folds vals into per-group integer sums.
func SumInt64Update(groups []int32, vals []int64, sumI []int64, sumF []float64, count []int64) {
	for i, g := range groups {
		x := vals[i]
		sumI[g] += x
		sumF[g] += float64(x)
		count[g]++
	}
}

// SumInt64UpdateNulls is SumInt64Update skipping rows whose null bit is set.
// The bitmap may be shorter than the row count; uncovered rows are not null.
func SumInt64UpdateNulls(groups []int32, vals []int64, nulls []uint64, sumI []int64, sumF []float64, count []int64) {
	covered := len(nulls) << 6
	if covered > len(groups) {
		covered = len(groups)
	}
	for i := 0; i < covered; i++ {
		if nulls[i>>6]&(1<<(uint(i)&63)) != 0 {
			continue
		}
		g := groups[i]
		x := vals[i]
		sumI[g] += x
		sumF[g] += float64(x)
		count[g]++
	}
	for i := covered; i < len(groups); i++ {
		g := groups[i]
		x := vals[i]
		sumI[g] += x
		sumF[g] += float64(x)
		count[g]++
	}
}

// SumFloat64Update folds vals into per-group float sums.
func SumFloat64Update(groups []int32, vals []float64, sumF []float64, count []int64) {
	for i, g := range groups {
		sumF[g] += vals[i]
		count[g]++
	}
}

// SumFloat64UpdateNulls is SumFloat64Update skipping rows whose null bit is set.
// The bitmap may be shorter than the row count; uncovered rows are not null.
func SumFloat64UpdateNulls(groups []int32, vals []float64, nulls []uint64, sumF []float64, count []int64) {
	covered := len(nulls) << 6
	if covered > len(groups) {
		covered = len(groups)
	}
	for i := 0; i < covered; i++ {
		if nulls[i>>6]&(1<<(uint(i)&63)) != 0 {
			continue
		}
		g := groups[i]
		sumF[g] += vals[i]
		count[g]++
	}
	for i := covered; i < len(groups); i++ {
		g := groups[i]
		sumF[g] += vals[i]
		count[g]++
	}
}

// CountUpdate increments every row's group count (COUNT(*) or a COUNT over a
// column with no nulls).
func CountUpdate(groups []int32, count []int64) {
	for _, g := range groups {
		count[g]++
	}
}

// CountUpdateNulls increments the group count for non-null rows only.
// The bitmap may be shorter than the row count; uncovered rows are not null.
func CountUpdateNulls(groups []int32, nulls []uint64, count []int64) {
	covered := len(nulls) << 6
	if covered > len(groups) {
		covered = len(groups)
	}
	for i := 0; i < covered; i++ {
		if nulls[i>>6]&(1<<(uint(i)&63)) != 0 {
			continue
		}
		count[groups[i]]++
	}
	for i := covered; i < len(groups); i++ {
		count[groups[i]]++
	}
}

// MinInt64Update folds vals into per-group minima; seen[g] marks groups that
// have absorbed at least one non-null row.
func MinInt64Update(groups []int32, vals []int64, minmax []int64, seen []bool) {
	for i, g := range groups {
		x := vals[i]
		if !seen[g] || x < minmax[g] {
			minmax[g] = x
			seen[g] = true
		}
	}
}

// MaxInt64Update folds vals into per-group maxima.
func MaxInt64Update(groups []int32, vals []int64, minmax []int64, seen []bool) {
	for i, g := range groups {
		x := vals[i]
		if !seen[g] || x > minmax[g] {
			minmax[g] = x
			seen[g] = true
		}
	}
}
`)
	return b.String()
}
