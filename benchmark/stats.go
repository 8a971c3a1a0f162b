package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail may be reported at, highest
// first, in tenths of a percent. A tail is only as good as the samples
// beyond it, so tailPercentile picks the highest rung with at least
// minBeyond samples above it.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

const minBeyond = 10

// tailPercentile returns the highest ladder percentile that leaves at least
// minBeyond of n samples beyond it. ok is false when not even the median
// does (n < 2*minBeyond); the median is returned anyway so a caller always
// has a number to print, flagged as unsupported.
func tailPercentile(n int) (p float64, ok bool) {
	for _, permille := range tailLadder {
		if n*(1000-permille) >= minBeyond*1000 {
			return float64(permille) / 10, true
		}
	}
	return 50, false
}

// percentile interpolates linearly between the closest ranks of an
// ascending slice (the "type 7" estimate). It returns NaN for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// summary is a timing reported the way the benchmark reports every timing:
// the median, the highest supported tail percentile, and the sample count.
type summary struct {
	N      int
	P50    float64
	Tail   float64
	TailP  float64 // which percentile Tail is
	TailOK bool    // false when fewer than minBeyond samples lie beyond it
}

func summarize(v []float64) summary {
	s := sortedCopy(v)
	out := summary{N: len(s)}
	out.TailP, out.TailOK = tailPercentile(len(s))
	out.P50 = percentile(s, 50)
	out.Tail = percentile(s, out.TailP)
	return out
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does by default (the "exclusive"
// method), which is what the driver judges run-to-run spread with.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}
