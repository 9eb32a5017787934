package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Quantile returns the nearest-rank q-quantile of xs without mutating it.
func Quantile(xs []float64, q float64) float64 {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return nearestRank(cp, q)
}

// nearestRank returns the nearest-rank q-quantile of sorted: its first
// element for q <= 0, its last for q >= 1, and 0 when it is empty. It is
// the one rule behind Quantile and ECDF.Quantile.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	i := int(math.Ceil(q*float64(n))) - 1
	return sorted[min(max(i, 0), n-1)]
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// TopShare returns the fraction of Sum(xs) contributed by the top `frac`
// proportion of entries (by value, descending). For example
// TopShare(spend, 0.10) answers "what share of all spend do the top 10% of
// advertisers account for?" — the concentration statistic behind Figure 4.
func TopShare(xs []float64, frac float64) float64 {
	if len(xs) == 0 || frac <= 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Sort(sort.Reverse(sort.Float64Slice(cp)))
	total := Sum(cp)
	if total <= 0 {
		return 0
	}
	k := int(math.Ceil(frac * float64(len(cp))))
	if k > len(cp) {
		k = len(cp)
	}
	return Sum(cp[:k]) / total
}

// CumulativeShare returns the cumulative share of total contributed by
// advertisers in decreasing value order, evaluated at each of the given
// advertiser-proportion points (values in (0, 1]). This renders the curves
// of Figure 4 directly.
func CumulativeShare(xs []float64, props []float64) []Point {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Sort(sort.Reverse(sort.Float64Slice(cp)))
	total := Sum(cp)
	out := make([]Point, 0, len(props))
	run := 0.0
	next := 0
	for i, v := range cp {
		run += v
		p := float64(i+1) / float64(len(cp))
		for next < len(props) && p >= props[next] {
			share := 0.0
			if total > 0 {
				share = run / total
			}
			out = append(out, Point{X: props[next], Y: share})
			next++
		}
	}
	for next < len(props) {
		share := 0.0
		if total > 0 {
			share = 1.0
		}
		out = append(out, Point{X: props[next], Y: share})
		next++
	}
	return out
}
