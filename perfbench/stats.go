package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to count as measured rather than as one outlier.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// an ascending sample: the smallest value with at least p% of the
// sample at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	// The epsilon keeps float error in p·n/100 from bumping an exact
	// rank up by one.
	rank := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tail returns the highest percentile no greater than max whose nearest
// rank leaves at least minBeyond samples beyond it, and its value. A
// sample too small to support any such percentile reports its median
// (p = 50).
func tail(sorted []float64, max float64) (p, v float64) {
	n := len(sorted)
	if n <= 2*minBeyond {
		return 50, percentile(sorted, 50)
	}
	p = math.Min(max, 100*float64(n-minBeyond)/float64(n))
	// Truncate to 0.1 so the label reads cleanly; truncation only lowers
	// the rank, keeping at least minBeyond samples beyond it.
	p = math.Floor(p*10) / 10
	return p, percentile(sorted, p)
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median of xs (NaN when empty).
func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// mean is the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// calmHalf returns the indices of the half of the intervals (rounded
// up) during which the hypervisor stole the least CPU; steal[i] is the
// share of interval i's CPU time it took. On a shared VM a burst of
// stolen CPU stalls every process at once, and which intervals it hits
// depends on the neighbours, not on the program.
func calmHalf(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	return idx[:(len(idx)+1)/2]
}

// setupSeconds is the lower of the medians of the set-up groups. A run
// sets up in two groups a window apart, so a burst of stolen CPU that
// slows every set-up of one group does not set the figure.
func setupSeconds(groups [2][]float64) float64 {
	return math.Min(median(groups[0]), median(groups[1]))
}
