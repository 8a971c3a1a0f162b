package kernel

// WordsFor returns the number of 64-bit bitmap words covering n rows.
func WordsFor(n int) int { return (n + 63) >> 6 }

// NullAt reports whether bit i is set; a short bitmap means "not null".
func NullAt(nulls []uint64, i int) bool {
	w := i >> 6
	return w < len(nulls) && nulls[w]&(1<<(uint(i)&63)) != 0
}

// SetNull sets bit i. The bitmap must already cover row i.
func SetNull(nulls []uint64, i int) { nulls[i>>6] |= 1 << (uint(i) & 63) }

// OrWords ors src into dst; dst must be at least as long as src.
func OrWords(dst, src []uint64) {
	for i, w := range src {
		if w != 0 {
			dst[i] |= w
		}
	}
}

// AnyWord reports whether any bit is set in the bitmap.
func AnyWord(words []uint64) bool {
	for _, w := range words {
		if w != 0 {
			return true
		}
	}
	return false
}

// SelectTrue appends to sel (reset first) the indices i in [0, n) where
// vals[i] is true and the null bit is clear — SQL WHERE semantics, where
// NULL is not true.
func SelectTrue(vals []bool, nulls []uint64, n int, sel []int32) []int32 {
	sel = sel[:0]
	// Bitmaps may be shorter than WordsFor(n): rows past the covered prefix
	// are not null. Split the loop so the covered part checks bits and the
	// tail skips the bitmap entirely.
	covered := len(nulls) << 6
	if covered > n {
		covered = n
	}
	for i := 0; i < covered; i++ {
		if vals[i] && nulls[i>>6]&(1<<(uint(i)&63)) == 0 {
			sel = append(sel, int32(i))
		}
	}
	for i := covered; i < n; i++ {
		if vals[i] {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// GatherNullBits transfers src's null bits for the selected rows into dst,
// which must be zeroed and cover len(sel) rows.
func GatherNullBits(dst, src []uint64, sel []int32) {
	if len(src) == 0 {
		return
	}
	for j, s := range sel {
		w := int(s) >> 6
		if w < len(src) && src[w]&(1<<(uint(s)&63)) != 0 {
			dst[j>>6] |= 1 << (uint(j) & 63)
		}
	}
}

// GatherChunkedNullBits is GatherNullBits over a bitmap held as chunks of
// 1<<shift rows each (see GatherChunkedInt64); a nil or short chunk bitmap
// means its rows are not null.
func GatherChunkedNullBits(dst []uint64, src [][]uint64, rows []int64, shift uint) {
	mask := int64(1)<<shift - 1
	for j, r := range rows {
		nulls := src[r>>shift]
		i := r & mask
		if w := int(i >> 6); w < len(nulls) && nulls[w]&(1<<(uint(i)&63)) != 0 {
			dst[j>>6] |= 1 << (uint(j) & 63)
		}
	}
}
