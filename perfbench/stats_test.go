package main

import (
	"slices"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(10)
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	// 0.99·1000 is not exact in floating point; the rank must still be 990.
	if got := percentile(seq(1000), 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		p, want float64
	}{
		{1000, 99, 990}, // p99 has exactly ten beyond it
		{2000, 99, 1980},
		{500, 98, 490}, // p99 would leave five; p98 leaves ten
		{100, 90, 90},
		{21, 52.3, 11}, // rank 11 of 21 leaves ten
		{20, 50, 10},   // too small for any tail: the median
		{5, 50, 3},
	} {
		p, v := tail(seq(c.n), 99)
		if p != c.p || v != c.want {
			t.Errorf("tail of %d samples = p%v %v, want p%v %v", c.n, p, v, c.p, c.want)
		}
		if c.n > 2*minBeyond {
			if beyond := c.n - int(v); beyond < minBeyond {
				t.Errorf("tail of %d samples leaves %d beyond, want ≥ %d", c.n, beyond, minBeyond)
			}
		}
	}
}

func TestSetupSecondsTakesTheCalmerGroup(t *testing.T) {
	calm := []float64{5, 4, 6, 5, 30}
	slow := []float64{9, 8, 9, 10, 8}
	if got := setupSeconds([2][]float64{slow, calm}); got != 5 {
		t.Errorf("setupSeconds = %v, want the calm group's median 5", got)
	}
	if got := setupSeconds([2][]float64{calm, slow}); got != 5 {
		t.Errorf("setupSeconds = %v with the groups swapped, want 5", got)
	}
}

func TestCalmHalf(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []int
	}{
		{[]float64{0.3, 0.1, 0.05, 0.2}, []int{2, 1}},
		{[]float64{0, 0.2, 0.01, 0.05, 0.04}, []int{0, 2, 4}}, // odd count: rounded up
		{[]float64{0.02, 0.02, 0.01}, []int{2, 0}},            // ties keep their order
	} {
		if got := calmHalf(c.steal); !slices.Equal(got, c.want) {
			t.Errorf("calmHalf(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}
