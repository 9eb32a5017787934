package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over float64
// samples. Construct with NewECDF; the sample set is sorted once and the
// type is immutable afterwards, so it is safe for concurrent reads.
type ECDF struct {
	xs []float64 // sorted
}

// NewECDF builds an ECDF from values. NaNs are dropped. The input slice is
// not retained.
func NewECDF(values []float64) *ECDF {
	xs := make([]float64, 0, len(values))
	for _, v := range values {
		if !math.IsNaN(v) {
			xs = append(xs, v)
		}
	}
	sort.Float64s(xs)
	return &ECDF{xs: xs}
}

// N returns the number of samples.
func (e *ECDF) N() int { return len(e.xs) }

// Min returns the smallest sample, or 0 for an empty ECDF.
func (e *ECDF) Min() float64 {
	if len(e.xs) == 0 {
		return 0
	}
	return e.xs[0]
}

// Max returns the largest sample, or 0 for an empty ECDF.
func (e *ECDF) Max() float64 {
	if len(e.xs) == 0 {
		return 0
	}
	return e.xs[len(e.xs)-1]
}

// At returns P(X <= x).
func (e *ECDF) At(x float64) float64 {
	if len(e.xs) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.xs, x)
	// Advance past duplicates equal to x: SearchFloat64s returns the first
	// index with xs[i] >= x; we need the count of samples <= x.
	for i < len(e.xs) && e.xs[i] == x {
		i++
	}
	return float64(i) / float64(len(e.xs))
}

// Quantile returns the q-quantile for q in [0, 1] using the nearest-rank
// method. It returns 0 for an empty ECDF.
func (e *ECDF) Quantile(q float64) float64 { return nearestRank(e.xs, q) }

// Median returns the 0.5-quantile.
func (e *ECDF) Median() float64 { return e.Quantile(0.5) }

// Points samples the ECDF at n evenly spaced cumulative probabilities and
// returns (x, p) pairs suitable for plotting a CDF curve.
func (e *ECDF) Points(n int) []Point {
	if n <= 0 || len(e.xs) == 0 {
		return nil
	}
	pts := make([]Point, 0, n)
	for i := 1; i <= n; i++ {
		p := float64(i) / float64(n)
		pts = append(pts, Point{X: e.Quantile(p), Y: p})
	}
	return pts
}

// Point is an (x, y) pair in a rendered series.
type Point struct {
	X, Y float64
}

// Values returns a copy of the sorted sample set.
func (e *ECDF) Values() []float64 {
	out := make([]float64, len(e.xs))
	copy(out, e.xs)
	return out
}
