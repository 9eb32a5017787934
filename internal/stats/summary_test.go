package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanSum(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("mean %v", Mean(xs))
	}
	if Sum(xs) != 40 {
		t.Fatalf("sum %v", Sum(xs))
	}
}

func TestEmptyStats(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty inputs must yield 0")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestMedianOddEven(t *testing.T) {
	if Median([]float64{1, 3, 2}) != 2 {
		t.Fatal("odd median")
	}
	// Nearest-rank: even-length median is the lower-middle element.
	if Median([]float64{1, 2, 3, 4}) != 2 {
		t.Fatal("even median (nearest rank)")
	}
}

func TestTopShare(t *testing.T) {
	xs := []float64{100, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	got := TopShare(xs, 0.10) // top 1 of 10
	want := 100.0 / 109.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("TopShare %v, want %v", got, want)
	}
	if TopShare(xs, 1.0) != 1.0 {
		t.Fatal("TopShare(1.0) != 1")
	}
	if TopShare(nil, 0.5) != 0 {
		t.Fatal("TopShare(empty)")
	}
}

func TestTopShareMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 {
				xs = append(xs, v)
			}
		}
		prev := 0.0
		for frac := 0.1; frac <= 1.0; frac += 0.1 {
			s := TopShare(xs, frac)
			if s < prev-1e-9 || s < 0 || s > 1+1e-9 {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCumulativeShare(t *testing.T) {
	xs := []float64{50, 30, 15, 5}
	pts := CumulativeShare(xs, []float64{0.25, 0.5, 1.0})
	if len(pts) != 3 {
		t.Fatalf("len %d", len(pts))
	}
	if pts[0].Y != 0.5 || pts[1].Y != 0.8 || pts[2].Y != 1.0 {
		t.Fatalf("shares %v", pts)
	}
}

func TestCumulativeShareEmptyTotal(t *testing.T) {
	pts := CumulativeShare([]float64{0, 0}, []float64{0.5, 1})
	for _, p := range pts {
		if p.Y != 0 && p.Y != 1 {
			// all-zero input: shares are defined as 0 mid-way.
			t.Fatalf("unexpected share %v", p)
		}
	}
}
