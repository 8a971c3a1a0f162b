package vector

import "math"

// mix64 is a strong 64-bit finalizer (splitmix64 variant) used to hash
// fixed-width values and to combine hashes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nullHash is the hash of a NULL row, of any type.
const nullHash = 0x9e3779b97f4a7c15

// CombineHash mixes an element hash into an accumulated row hash.
func CombineHash(acc, h uint64) uint64 {
	return mix64(acc ^ (h + 0x9e3779b97f4a7c15 + (acc << 6) + (acc >> 2)))
}

// hashString is an FNV-1a style string hash strengthened by a final mix.
func hashString(s string) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return mix64(h)
}

// floatBits canonicalizes -0 to +0 so that equal floats hash equally.
func floatBits(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	return math.Float64bits(f)
}
