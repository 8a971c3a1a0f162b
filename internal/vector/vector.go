package vector

import (
	"fmt"
	"slices"
)

// Vector is a typed column of values with an optional null bitmap. Storage is
// a tagged union: exactly one of the data slices is in use, selected by the
// vector's type (ints doubles as the DATE representation).
//
// A vector may be a view (View): its slices alias rows of another vector,
// cut with cap = len. A view is copy-on-write. Reset, the Resize family,
// SetNull and EnsureNullWords detach it before they write, and an append
// reallocates because no capacity is left, so nothing written through a
// view reaches the storage it aliases.
type Vector struct {
	typ    Type
	length int

	ints   []int64
	floats []float64
	strs   []string
	bools  []bool

	// nulls is a bitmap with one bit per row; nil means "no nulls".
	nulls []uint64

	// view marks slices aliased from another vector's storage.
	view bool
}

// New returns an empty vector of the given type with capacity for cap rows.
func New(t Type, capacity int) *Vector {
	v := &Vector{typ: t}
	v.reserve(capacity)
	return v
}

func (v *Vector) reserve(capacity int) {
	switch v.typ {
	case TypeInt64, TypeDate:
		if cap(v.ints) < capacity {
			v.ints = append(make([]int64, 0, capacity), v.ints...)
		}
	case TypeFloat64:
		if cap(v.floats) < capacity {
			v.floats = append(make([]float64, 0, capacity), v.floats...)
		}
	case TypeString:
		if cap(v.strs) < capacity {
			v.strs = append(make([]string, 0, capacity), v.strs...)
		}
	case TypeBool:
		if cap(v.bools) < capacity {
			v.bools = append(make([]bool, 0, capacity), v.bools...)
		}
	default:
		panic(fmt.Sprintf("vector.New: invalid type %v", v.typ))
	}
}

// Grow makes room for n rows in all, keeping the rows there are: it
// reserves the values and, where the vector has a null bitmap, the bitmap,
// so appends up to n rows do not reallocate.
func (v *Vector) Grow(n int) {
	if v.view {
		v.detach(true)
	}
	v.reserve(n)
	if words := (n + 63) >> 6; v.nulls != nil && cap(v.nulls) < words {
		v.nulls = append(make([]uint64, 0, words), v.nulls...)
	}
}

// Type returns the vector's logical type.
func (v *Vector) Type() Type { return v.typ }

// Len returns the number of rows in the vector.
func (v *Vector) Len() int { return v.length }

// View points v at rows [lo, hi) of src, which must have v's type family,
// without copying: v reads src's storage until a mutator detaches it. lo
// must be a multiple of 64 so the null words line up, and hi too unless it
// is src's end, so that no null bit of a row past hi is in view.
func (v *Vector) View(src *Vector, lo, hi int) {
	if lo&63 != 0 || hi&63 != 0 && hi != src.length {
		panic(fmt.Sprintf("vector.View: rows [%d, %d) of %d are not word-aligned", lo, hi, src.length))
	}
	v.ints, v.floats, v.strs, v.bools, v.nulls = nil, nil, nil, nil, nil
	switch v.typ {
	case TypeInt64, TypeDate:
		v.ints = src.ints[lo:hi:hi]
	case TypeFloat64:
		v.floats = src.floats[lo:hi:hi]
	case TypeString:
		v.strs = src.strs[lo:hi:hi]
	case TypeBool:
		v.bools = src.bools[lo:hi:hi]
	}
	if w := lo >> 6; w < len(src.nulls) {
		end := min((hi+63)>>6, len(src.nulls))
		v.nulls = src.nulls[w:end:end]
	}
	v.length = hi - lo
	v.view = true
}

// detach gives a view storage of its own before a write in place. With
// keep the rows are copied, for a caller that modifies them; without, they
// are dropped, for one that overwrites every row.
func (v *Vector) detach(keep bool) {
	v.view = false
	if keep {
		v.ints, v.floats = slices.Clone(v.ints), slices.Clone(v.floats)
		v.strs, v.bools = slices.Clone(v.strs), slices.Clone(v.bools)
		v.nulls = slices.Clone(v.nulls)
		return
	}
	v.ints, v.floats, v.strs, v.bools, v.nulls = nil, nil, nil, nil, nil
}

// Reset truncates the vector to zero rows, keeping capacity (a view lets
// go of the storage it aliases instead).
func (v *Vector) Reset() {
	if v.view {
		v.detach(false)
	}
	v.length = 0
	v.ints = v.ints[:0]
	v.floats = v.floats[:0]
	v.strs = v.strs[:0]
	v.bools = v.bools[:0]
	v.nulls = v.nulls[:0]
}

// HasNulls reports whether any row is NULL.
func (v *Vector) HasNulls() bool {
	for _, w := range v.nulls {
		if w != 0 {
			return true
		}
	}
	return false
}

// IsNull reports whether row i is NULL.
func (v *Vector) IsNull(i int) bool {
	w := i >> 6
	if w >= len(v.nulls) {
		return false
	}
	return v.nulls[w]&(1<<(uint(i)&63)) != 0
}

// SetNull marks row i as NULL. The row must already exist.
func (v *Vector) SetNull(i int) {
	if v.view {
		v.detach(true)
	}
	w := i >> 6
	for len(v.nulls) <= w {
		v.nulls = append(v.nulls, 0)
	}
	v.nulls[w] |= 1 << (uint(i) & 63)
}

// Int64s exposes the backing int64 slice (BIGINT and DATE vectors).
func (v *Vector) Int64s() []int64 { return v.ints }

// Float64s exposes the backing float64 slice (DOUBLE vectors).
func (v *Vector) Float64s() []float64 { return v.floats }

// Strings exposes the backing string slice (VARCHAR vectors).
func (v *Vector) Strings() []string { return v.strs }

// Bools exposes the backing bool slice (BOOLEAN vectors).
func (v *Vector) Bools() []bool { return v.bools }

// AppendInt64 appends an int64/date row.
func (v *Vector) AppendInt64(x int64) {
	v.ints = append(v.ints, x)
	v.length++
}

// AppendFloat64 appends a float64 row.
func (v *Vector) AppendFloat64(x float64) {
	v.floats = append(v.floats, x)
	v.length++
}

// AppendString appends a string row.
func (v *Vector) AppendString(x string) {
	v.strs = append(v.strs, x)
	v.length++
}

// AppendBool appends a bool row.
func (v *Vector) AppendBool(x bool) {
	v.bools = append(v.bools, x)
	v.length++
}

// AppendNull appends a NULL row (backing storage gets the zero value).
func (v *Vector) AppendNull() {
	switch v.typ {
	case TypeInt64, TypeDate:
		v.ints = append(v.ints, 0)
	case TypeFloat64:
		v.floats = append(v.floats, 0)
	case TypeString:
		v.strs = append(v.strs, "")
	case TypeBool:
		v.bools = append(v.bools, false)
	}
	v.length++
	v.SetNull(v.length - 1)
}

// AppendValue appends a boxed value, which must match the vector's type
// family (BIGINT accepts DATE and vice versa).
func (v *Vector) AppendValue(val Value) {
	if val.Null {
		v.AppendNull()
		return
	}
	switch v.typ {
	case TypeInt64, TypeDate:
		v.AppendInt64(val.I)
	case TypeFloat64:
		v.AppendFloat64(val.F)
	case TypeString:
		v.AppendString(val.S)
	case TypeBool:
		v.AppendBool(val.B)
	default:
		panic(fmt.Sprintf("AppendValue: invalid vector type %v", v.typ))
	}
}

// Value returns the boxed value at row i.
func (v *Vector) Value(i int) Value {
	if v.IsNull(i) {
		return NewNull(v.typ)
	}
	switch v.typ {
	case TypeInt64:
		return NewInt64(v.ints[i])
	case TypeDate:
		return NewDate(v.ints[i])
	case TypeFloat64:
		return NewFloat64(v.floats[i])
	case TypeString:
		return NewString(v.strs[i])
	case TypeBool:
		return NewBool(v.bools[i])
	default:
		return Value{}
	}
}

// AppendFrom appends row i of src (which must have the same type).
func (v *Vector) AppendFrom(src *Vector, i int) {
	if src.IsNull(i) {
		v.AppendNull()
		return
	}
	switch v.typ {
	case TypeInt64, TypeDate:
		v.AppendInt64(src.ints[i])
	case TypeFloat64:
		v.AppendFloat64(src.floats[i])
	case TypeString:
		v.AppendString(src.strs[i])
	case TypeBool:
		v.AppendBool(src.bools[i])
	}
}

// ResizeInt64 sets the vector to exactly n int64/date rows with no nulls and
// returns the backing slice for direct writes. Existing contents are
// unspecified; callers overwrite every row.
func (v *Vector) ResizeInt64(n int) []int64 {
	if v.view {
		v.detach(false)
	}
	if cap(v.ints) < n {
		v.ints = make([]int64, n)
	} else {
		v.ints = v.ints[:n]
	}
	v.length = n
	v.nulls = v.nulls[:0]
	return v.ints
}

// ResizeFloat64 is ResizeInt64 for float64 vectors.
func (v *Vector) ResizeFloat64(n int) []float64 {
	if v.view {
		v.detach(false)
	}
	if cap(v.floats) < n {
		v.floats = make([]float64, n)
	} else {
		v.floats = v.floats[:n]
	}
	v.length = n
	v.nulls = v.nulls[:0]
	return v.floats
}

// ResizeString is ResizeInt64 for string vectors.
func (v *Vector) ResizeString(n int) []string {
	if v.view {
		v.detach(false)
	}
	if cap(v.strs) < n {
		v.strs = make([]string, n)
	} else {
		v.strs = v.strs[:n]
	}
	v.length = n
	v.nulls = v.nulls[:0]
	return v.strs
}

// ResizeBool is ResizeInt64 for bool vectors.
func (v *Vector) ResizeBool(n int) []bool {
	if v.view {
		v.detach(false)
	}
	if cap(v.bools) < n {
		v.bools = make([]bool, n)
	} else {
		v.bools = v.bools[:n]
	}
	v.length = n
	v.nulls = v.nulls[:0]
	return v.bools
}

// NullWords exposes the raw null bitmap (one bit per row, LSB first); nil or
// short means the remaining rows are non-null.
func (v *Vector) NullWords() []uint64 { return v.nulls }

// EnsureNullWords grows the null bitmap to cover n rows, zeroing any newly
// exposed words, and returns it for direct bit manipulation.
func (v *Vector) EnsureNullWords(n int) []uint64 {
	if v.view {
		v.detach(true)
	}
	words := (n + 63) >> 6
	if cap(v.nulls) < words {
		nw := make([]uint64, words)
		copy(nw, v.nulls)
		v.nulls = nw
	} else {
		old := len(v.nulls)
		v.nulls = v.nulls[:words]
		for i := old; i < words; i++ {
			v.nulls[i] = 0
		}
	}
	return v.nulls
}

// AppendRange bulk-appends rows [start, end) of src, which must have the same
// type family. Backing values are copied wholesale; null bits transfer per
// row only when src actually has nulls. Correct because null rows hold the
// zero value in backing storage (the AppendNull invariant).
func (v *Vector) AppendRange(src *Vector, start, end int) {
	if end <= start {
		return
	}
	switch v.typ {
	case TypeInt64, TypeDate:
		v.ints = append(v.ints, src.ints[start:end]...)
	case TypeFloat64:
		v.floats = append(v.floats, src.floats[start:end]...)
	case TypeString:
		v.strs = append(v.strs, src.strs[start:end]...)
	case TypeBool:
		v.bools = append(v.bools, src.bools[start:end]...)
	}
	base := v.length
	v.length += end - start
	if len(src.nulls) > 0 {
		for i := start; i < end; i++ {
			if src.IsNull(i) {
				v.SetNull(base + i - start)
			}
		}
	}
}

// HashInto combines the hash of each row into the accumulator slice, which
// must have at least Len entries. A NULL row combines the NULL hash alone,
// whatever its value slot holds, so every NULL hashes alike.
func (v *Vector) HashInto(acc []uint64) {
	n := v.length
	if v.HasNulls() {
		for i := 0; i < n; i++ {
			if v.IsNull(i) {
				acc[i] = CombineHash(acc[i], nullHash)
			} else {
				acc[i] = CombineHash(acc[i], v.hashAt(i))
			}
		}
		return
	}
	switch v.typ {
	case TypeInt64, TypeDate:
		for i := 0; i < n; i++ {
			acc[i] = CombineHash(acc[i], mix64(uint64(v.ints[i])))
		}
	case TypeFloat64:
		for i := 0; i < n; i++ {
			acc[i] = CombineHash(acc[i], mix64(floatBits(v.floats[i])))
		}
	case TypeString:
		for i := 0; i < n; i++ {
			acc[i] = CombineHash(acc[i], hashString(v.strs[i]))
		}
	case TypeBool:
		for i := 0; i < n; i++ {
			acc[i] = CombineHash(acc[i], v.hashAt(i))
		}
	}
}

// hashAt is the hash of row i's value, NULL or not.
func (v *Vector) hashAt(i int) uint64 {
	switch v.typ {
	case TypeInt64, TypeDate:
		return mix64(uint64(v.ints[i]))
	case TypeFloat64:
		return mix64(floatBits(v.floats[i]))
	case TypeString:
		return hashString(v.strs[i])
	default:
		if v.bools[i] {
			return mix64(1)
		}
		return mix64(2)
	}
}

// MemBytes estimates the resident size of the vector in bytes, including
// string payloads. Used by the memory accountant that models the
// process-level (CRIU-style) image size.
func (v *Vector) MemBytes() int64 {
	var b int64
	b += int64(cap(v.ints)) * 8
	b += int64(cap(v.floats)) * 8
	b += int64(cap(v.bools))
	b += int64(cap(v.nulls)) * 8
	b += int64(cap(v.strs)) * 16
	for _, s := range v.strs {
		b += int64(len(s))
	}
	return b
}

// viewBytes returns the MemBytes of a view of v's rows [0, n).
func (v *Vector) viewBytes(n int) int64 {
	b := int64(min((n+63)>>6, len(v.nulls))) * 8
	switch v.typ {
	case TypeInt64, TypeDate, TypeFloat64:
		b += int64(n) * 8
	case TypeBool:
		b += int64(n)
	case TypeString:
		b += int64(n) * 16
		for _, s := range v.strs[:n] {
			b += int64(len(s))
		}
	}
	return b
}
