package main

import (
	"math"
	"sort"

	"repro/internal/metrics"
)

// percentile is the nearest-rank q-quantile (0 < q <= 1) of vals: the
// smallest value with at least q·n values at or below it. It sorts a
// copy; an empty slice yields 0.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// beyond counts the samples strictly above the q-quantile: the tail a
// percentile rests on (the p99 needs at least 10 of them).
func beyond(vals []float64, q float64) int {
	p := percentile(vals, q)
	n := 0
	for _, v := range vals {
		if v > p {
			n++
		}
	}
	return n
}

// median is the middle value (mean of the two middle values for an
// even count); an empty slice yields 0.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(vals, n=4) (the default "exclusive"
// method), so compare mode reads spreads as that common tool does.
// Fewer than two values yield the single value twice.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const parts = 4
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / parts
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*parts
		return (s[j-1]*float64(parts-delta) + s[j]*float64(delta)) / parts
	}
	return cut(1), cut(3)
}

// mean is the arithmetic mean; an empty slice yields 0.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// rkAt is the paper's R_k (Section 6.2) for one query: the relevant
// documents in the first k selected databases over the most any k
// databases hold. rel[i] is r(q, D_i); ranked lists the selected
// database indices in rank order (fewer than k is allowed).
func rkAt(rel []int, ranked []int, k int) float64 {
	return metrics.RkCurve(rel, ranked, k)[k-1]
}

// frac is num/den, 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
