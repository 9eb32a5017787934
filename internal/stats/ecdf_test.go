package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2})
	if e.N() != 3 {
		t.Fatalf("N = %d", e.N())
	}
	if e.Min() != 1 || e.Max() != 3 {
		t.Fatalf("min/max = %v/%v", e.Min(), e.Max())
	}
	if got := e.At(0.5); got != 0 {
		t.Fatalf("At(0.5) = %v", got)
	}
	if got := e.At(2); got != 2.0/3 {
		t.Fatalf("At(2) = %v", got)
	}
	if got := e.At(10); got != 1 {
		t.Fatalf("At(10) = %v", got)
	}
}

func TestECDFDropsNaN(t *testing.T) {
	e := NewECDF([]float64{1, math.NaN(), 2})
	if e.N() != 2 {
		t.Fatalf("NaN not dropped: N=%d", e.N())
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.N() != 0 || e.Median() != 0 || e.At(1) != 0 {
		t.Fatal("empty ECDF should return zeros")
	}
}

func TestECDFQuantileNearestRank(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	e := NewECDF(xs)
	cases := map[float64]float64{0: 10, 0.25: 10, 0.5: 20, 0.75: 30, 1: 40, 0.51: 30}
	for q, want := range cases {
		if got := e.Quantile(q); got != want {
			t.Fatalf("Quantile(%v) = %v, want %v", q, got, want)
		}
		if got := Quantile(xs, q); got != want {
			t.Fatalf("stats.Quantile(xs, %v) = %v, want %v", q, got, want)
		}
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	// CDF must be non-decreasing and quantiles must invert consistently.
	f := func(raw []float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		e := NewECDF(vals)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		prev := 0.0
		for _, x := range sorted {
			p := e.At(x)
			if p < prev {
				return false
			}
			prev = p
		}
		// Quantile at the CDF of any value must be >= that value's rank
		// predecessor.
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := e.Quantile(q)
			if e.At(v) < q-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4, 5})
	pts := e.Points(5)
	if len(pts) != 5 {
		t.Fatalf("Points(5) len %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y || pts[i].X < pts[i-1].X {
			t.Fatalf("points not monotone: %v", pts)
		}
	}
	if pts[4].Y != 1 || pts[4].X != 5 {
		t.Fatalf("last point %v", pts[4])
	}
}

func TestECDFValuesCopy(t *testing.T) {
	e := NewECDF([]float64{2, 1})
	v := e.Values()
	v[0] = 99
	if e.Min() == 99 {
		t.Fatal("Values returned internal storage")
	}
}
