package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedSensitivity(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical values", same)
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed generator produced only %d distinct values", len(seen))
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Fork()
	c2 := parent.Fork()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling forks produced identical first values")
	}
}

func TestForkNamedStable(t *testing.T) {
	a := NewRNG(7).ForkNamed("alpha")
	b := NewRNG(7).ForkNamed("alpha")
	if a.Uint64() != b.Uint64() {
		t.Fatal("same-named forks from same seed differ")
	}
	c := NewRNG(7).ForkNamed("beta")
	d := NewRNG(7).ForkNamed("alpha")
	if c.Uint64() == d.Uint64() {
		t.Fatal("different names produced identical streams")
	}
}

func TestForkNamedDoesNotAdvanceParent(t *testing.T) {
	a := NewRNG(9)
	b := NewRNG(9)
	a.ForkNamed("x")
	if a.Uint64() != b.Uint64() {
		t.Fatal("ForkNamed advanced the parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(4)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	if err := quick.Check(func(n uint16) bool {
		nn := int(n%1000) + 1
		v := r.Intn(nn)
		return v >= 0 && v < nn
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := NewRNG(6)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	want := trials / n
	for i, c := range counts {
		if math.Abs(float64(c-want)) > float64(want)/10 {
			t.Fatalf("bucket %d: %d, want ~%d", i, c, want)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(9)
	hits := 0
	n := 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate %v", p)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(10)
	n := 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	n := 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / float64(n); math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %v", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(12)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestRangeBounds(t *testing.T) {
	r := NewRNG(14)
	for i := 0; i < 1000; i++ {
		v := r.Range(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}
