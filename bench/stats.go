package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of vs (mean of the two middle values
// for an even count), 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile of vs by nearest rank
// (the ceil(p·n/100)-th smallest value), 0 for an empty slice.
func percentile(vs []float64, p int) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := (p*n + 99) / 100
	return s[max(rank, 1)-1]
}

// tailPercentile picks the highest whole percentile that still has at
// least ten samples beyond it and returns that percentile with its
// value (nearest rank). With twenty samples or fewer no percentile
// above the median qualifies; the maximum is returned as percentile 100
// so callers always have a worst case to print.
func tailPercentile(vs []float64) (pct int, value float64) {
	n := len(vs)
	if n == 0 {
		return 100, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	for p := 99; p > 50; p-- {
		rank := (p*n + 99) / 100 // nearest rank, 1-based: ceil(p·n/100)
		if n-rank >= 10 {
			return p, s[rank-1]
		}
	}
	return 100, s[n-1]
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method) —
// the same spread the contract's driver computes over repeated runs.
// Fewer than two values have no spread.
func quartileSpread(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile, k = 1..3
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
