package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0.05, 15}, // ceil(0.25) = rank 1
		{0.30, 20}, // ceil(1.5) = rank 2
		{0.40, 20}, // ceil(2.0) = rank 2
		{0.50, 35}, // ceil(2.5) = rank 3
		{1.00, 50},
	} {
		if got := percentile(vals, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// 1..200: p99 is rank 198, leaving 2 samples beyond it.
	var hundreds []float64
	for i := 200; i >= 1; i-- {
		hundreds = append(hundreds, float64(i))
	}
	if got := percentile(hundreds, 0.99); got != 198 {
		t.Errorf("p99 of 1..200 = %v, want 198", got)
	}
	if got := beyond(hundreds, 0.99); got != 2 {
		t.Errorf("beyond p99 of 1..200 = %d, want 2", got)
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// The expected values are those of Python's
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		// quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		// quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{2, 1}, 0.75, 2.25},
		// quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{1, 2, 4, 8, 16}, 1.5, 12},
	} {
		q1, q3 := quartiles(c.vals)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vals, q1, q3, c.q1, c.q3)
		}
	}
}

func TestRkAt(t *testing.T) {
	// Relevant documents per database; the ideal top 2 hold 9 + 5 = 14.
	rel := []int{0, 5, 9, 1, 0}
	for _, c := range []struct {
		ranked []int
		k      int
		want   float64
	}{
		{[]int{2, 1}, 2, 1},            // the ideal order
		{[]int{1, 2}, 2, 1},            // order within the top k does not matter
		{[]int{3, 2}, 2, 10.0 / 14},    // (1 + 9) / 14
		{[]int{0, 4, 3}, 3, 1.0 / 15},  // 1 / (9 + 5 + 1)
		{[]int{1}, 2, 5.0 / 14},        // fewer selections than k
		{[]int{4, 0, 3, 1, 2}, 5, 1.0}, // k covers every database
	} {
		if got := rkAt(rel, c.ranked, c.k); !near(got, c.want) {
			t.Errorf("rkAt(%v, k=%d) = %v, want %v", c.ranked, c.k, got, c.want)
		}
	}
	// No relevant document anywhere: every selection is perfect.
	if got := rkAt([]int{0, 0}, []int{1}, 1); got != 1 {
		t.Errorf("rkAt with no relevant documents = %v, want 1", got)
	}
}
