package engine

import (
	"math"

	"github.com/riveterdb/riveter/internal/vector"
)

// encodeKeyFromVecs appends a canonical byte encoding of row r's group-key
// columns to dst. The encoding is injective (length-prefixed strings, type
// tags for null), so byte equality equals value equality.
func encodeKeyFromVecs(dst []byte, groupVecs []*vector.Vector, r int) []byte {
	for _, v := range groupVecs {
		if v.IsNull(r) {
			dst = append(dst, 0)
			continue
		}
		switch v.Type() {
		case vector.TypeInt64, vector.TypeDate:
			dst = append(dst, 1)
			x := uint64(v.Int64s()[r])
			dst = append(dst, byte(x), byte(x>>8), byte(x>>16), byte(x>>24), byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
		case vector.TypeFloat64:
			dst = append(dst, 2)
			x := uint64(floatBitsForKey(v.Float64s()[r]))
			dst = append(dst, byte(x), byte(x>>8), byte(x>>16), byte(x>>24), byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
		case vector.TypeString:
			s := v.Strings()[r]
			dst = append(dst, 3)
			n := uint32(len(s))
			dst = append(dst, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
			dst = append(dst, s...)
		case vector.TypeBool:
			if v.Bools()[r] {
				dst = append(dst, 4, 1)
			} else {
				dst = append(dst, 4, 0)
			}
		}
	}
	return dst
}

func floatBitsForKey(f float64) uint64 {
	if f == 0 {
		f = 0 // canonicalize -0
	}
	return math.Float64bits(f)
}
