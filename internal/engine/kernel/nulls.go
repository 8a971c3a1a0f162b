package kernel

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

// b2i is 1 for true and 0 for false; inlined, it compiles to a flag move
// and no branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// b2u8 is b2i as a byte, the way a bool is stored.
func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// nullBit is row i's bit of nulls, which must cover it, as 0 or 1.
func nullBit(nulls []uint64, i int) int { return int(nulls[i>>6] >> (uint(i) & 63) & 1) }

// SelectTrue writes to sel the rows i in [0, n) where vals[i] is true and
// the null bit is clear — SQL WHERE semantics, where NULL is not true — and
// returns them; sel must hold n rows. Like the generated selections, it is
// branch-free.
func SelectTrue(sel []int32, vals []bool, nulls []uint64, n int) []int32 {
	sel, vals = sel[:n], vals[:n]
	// Bitmaps may cover fewer than n rows: rows past the covered prefix
	// are not null.
	covered := min(len(nulls)<<6, n)
	k := 0
	for i := 0; i < covered; i++ {
		sel[k] = int32(i)
		k += b2i(vals[i]) &^ nullBit(nulls, i)
	}
	for i := covered; i < n; i++ {
		sel[k] = int32(i)
		k += b2i(vals[i])
	}
	return sel[:k]
}

// RefineTrue keeps the rows i of sel where vals[i] is true and the null
// bit is clear. sel must be ascending, as every selection is.
func RefineTrue(sel []int32, vals []bool, nulls []uint64) []int32 {
	covered := len(nulls) << 6
	k, j := 0, 0
	for ; j < len(sel) && int(sel[j]) < covered; j++ {
		i := sel[j]
		sel[k] = i
		k += b2i(vals[i]) &^ nullBit(nulls, int(i))
	}
	for _, i := range sel[j:] {
		sel[k] = i
		k += b2i(vals[i])
	}
	return sel[:k]
}

// SelectNulls writes to sel the rows in [0, n) whose null bit is set, or
// under negate clear, and returns them; sel must hold n rows.
func SelectNulls(sel []int32, nulls []uint64, n int, negate bool) []int32 {
	sel = sel[:n]
	flip := b2i(negate)
	covered := min(len(nulls)<<6, n)
	k := 0
	for i := 0; i < covered; i++ {
		sel[k] = int32(i)
		k += nullBit(nulls, i) ^ flip
	}
	if negate {
		for i := covered; i < n; i++ {
			sel[k] = int32(i)
			k++
		}
	}
	return sel[:k]
}

// RefineNulls keeps the rows of sel whose null bit is set, or under negate
// clear. sel must be ascending.
func RefineNulls(sel []int32, nulls []uint64, negate bool) []int32 {
	flip := b2i(negate)
	covered := len(nulls) << 6
	k, j := 0, 0
	for ; j < len(sel) && int(sel[j]) < covered; j++ {
		i := sel[j]
		sel[k] = i
		k += nullBit(nulls, int(i)) ^ flip
	}
	if negate {
		k += copy(sel[k:], sel[j:])
	}
	return sel[:k]
}

// SelectAll writes to sel every row in [0, n) and returns it; sel must
// hold n rows.
func SelectAll(sel []int32, n int) []int32 {
	sel = sel[:n]
	for i := range sel {
		sel[i] = int32(i)
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
