// Code generated by kernelgen. DO NOT EDIT.

package kernel

// GatherInt64 computes dst[j] = src[sel[j]] for every selected row.
func GatherInt64(dst, src []int64, sel []int32) {
	for j, s := range sel {
		dst[j] = src[s]
	}
}

// GatherChunkedInt64 computes dst[j] = row rows[j] of a column held as
// chunks of 1<<shift rows each: src[r>>shift][r&(1<<shift-1)].
func GatherChunkedInt64(dst []int64, src [][]int64, rows []int64, shift uint) {
	mask := int64(1)<<shift - 1
	for j, r := range rows {
		dst[j] = src[r>>shift][r&mask]
	}
}

// GatherFloat64 computes dst[j] = src[sel[j]] for every selected row.
func GatherFloat64(dst, src []float64, sel []int32) {
	for j, s := range sel {
		dst[j] = src[s]
	}
}

// GatherChunkedFloat64 computes dst[j] = row rows[j] of a column held as
// chunks of 1<<shift rows each: src[r>>shift][r&(1<<shift-1)].
func GatherChunkedFloat64(dst []float64, src [][]float64, rows []int64, shift uint) {
	mask := int64(1)<<shift - 1
	for j, r := range rows {
		dst[j] = src[r>>shift][r&mask]
	}
}

// GatherString computes dst[j] = src[sel[j]] for every selected row.
func GatherString(dst, src []string, sel []int32) {
	for j, s := range sel {
		dst[j] = src[s]
	}
}

// GatherChunkedString computes dst[j] = row rows[j] of a column held as
// chunks of 1<<shift rows each: src[r>>shift][r&(1<<shift-1)].
func GatherChunkedString(dst []string, src [][]string, rows []int64, shift uint) {
	mask := int64(1)<<shift - 1
	for j, r := range rows {
		dst[j] = src[r>>shift][r&mask]
	}
}

// GatherBool computes dst[j] = src[sel[j]] for every selected row.
func GatherBool(dst, src []bool, sel []int32) {
	for j, s := range sel {
		dst[j] = src[s]
	}
}

// GatherChunkedBool computes dst[j] = row rows[j] of a column held as
// chunks of 1<<shift rows each: src[r>>shift][r&(1<<shift-1)].
func GatherChunkedBool(dst []bool, src [][]bool, rows []int64, shift uint) {
	mask := int64(1)<<shift - 1
	for j, r := range rows {
		dst[j] = src[r>>shift][r&mask]
	}
}
