package stats

import (
	"math"
	"testing"
)

func TestZipfBounds(t *testing.T) {
	z := NewZipf(NewRNG(1), 1.5, 1, 100)
	for i := 0; i < 10000; i++ {
		if v := z.Uint64(); v >= 100 {
			t.Fatalf("Zipf value %d out of range", v)
		}
	}
}

func TestZipfMonotoneHead(t *testing.T) {
	// Rank 0 must be sampled more often than rank 10, which must beat
	// rank 100.
	z := NewZipf(NewRNG(2), 1.3, 1, 1000)
	counts := make([]int, 1000)
	for i := 0; i < 200000; i++ {
		counts[z.Uint64()]++
	}
	if !(counts[0] > counts[10] && counts[10] > counts[100]) {
		t.Fatalf("Zipf head not monotone: c0=%d c10=%d c100=%d", counts[0], counts[10], counts[100])
	}
}

func TestZipfSkewEffect(t *testing.T) {
	// Higher s concentrates more mass at rank 0.
	head := func(s float64) float64 {
		z := NewZipf(NewRNG(3), s, 1, 500)
		hits := 0
		const n = 50000
		for i := 0; i < n; i++ {
			if z.Uint64() == 0 {
				hits++
			}
		}
		return float64(hits) / n
	}
	if low, high := head(1.2), head(2.5); low >= high {
		t.Fatalf("head mass did not grow with skew: s=1.2 -> %v, s=2.5 -> %v", low, high)
	}
}

func TestZipfInvalidParamsPanic(t *testing.T) {
	for _, c := range []struct{ s, v float64 }{{1.0, 1}, {0.5, 1}, {2, 0.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewZipf(%v, %v) did not panic", c.s, c.v)
				}
			}()
			NewZipf(NewRNG(1), c.s, c.v, 10)
		}()
	}
}

func TestLogNormalMedian(t *testing.T) {
	ln := NewLogNormal(NewRNG(4), math.Log(10), 0.8)
	vals := make([]float64, 50000)
	for i := range vals {
		vals[i] = ln.Sample()
	}
	med := Median(vals)
	if med < 9 || med > 11 {
		t.Fatalf("lognormal median %v, want ~10", med)
	}
}

func TestExponentialMean(t *testing.T) {
	rng := NewRNG(6)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += Exponential(rng, 5)
	}
	if mean := sum / n; math.Abs(mean-5) > 0.15 {
		t.Fatalf("exponential mean %v, want ~5", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	rng := NewRNG(7)
	for _, lambda := range []float64{0.5, 3, 20, 100} {
		sum := 0
		const n = 50000
		for i := 0; i < n; i++ {
			sum += Poisson(rng, lambda)
		}
		mean := float64(sum) / n
		if math.Abs(mean-lambda) > lambda*0.05+0.05 {
			t.Fatalf("Poisson(%v) mean %v", lambda, mean)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	rng := NewRNG(8)
	if Poisson(rng, 0) != 0 || Poisson(rng, -1) != 0 {
		t.Fatal("Poisson of non-positive lambda must be 0")
	}
}

func TestGeometricMean(t *testing.T) {
	rng := NewRNG(9)
	p := 0.25
	sum := 0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += Geometric(rng, p)
	}
	mean := float64(sum) / n
	want := (1 - p) / p
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("Geometric(%v) mean %v, want %v", p, mean, want)
	}
}

func TestGeometricEdge(t *testing.T) {
	if Geometric(NewRNG(1), 1) != 0 {
		t.Fatal("Geometric(p=1) must be 0")
	}
}

func TestCategoricalDistribution(t *testing.T) {
	rng := NewRNG(10)
	w := []float64{1, 2, 7}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[Categorical(rng, w)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("Categorical bucket %d: %v, want %v", i, got, want)
		}
	}
}

func TestCategoricalZeroWeightNeverChosen(t *testing.T) {
	rng := NewRNG(11)
	w := []float64{0, 1, 0}
	for i := 0; i < 1000; i++ {
		if Categorical(rng, w) != 1 {
			t.Fatal("zero-weight bucket chosen")
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	for _, w := range [][]float64{{0, 0}, {-1, 2}, {}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Categorical(%v) did not panic", w)
				}
			}()
			Categorical(NewRNG(1), w)
		}()
	}
}
