package metrics

import (
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestBucketGeometry(t *testing.T) {
	// Every value maps into a bucket whose bounds contain it, and bucket
	// indexes are monotone in the value.
	vals := []int64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, math.MaxInt64}
	prev := -1
	for _, v := range vals {
		idx := bucketIndex(v)
		lo, hi := bucketBounds(idx)
		if v < lo || v > hi {
			t.Fatalf("value %d mapped to bucket %d [%d, %d]", v, idx, lo, hi)
		}
		if idx < prev {
			t.Fatalf("bucket index not monotone at %d: %d < %d", v, idx, prev)
		}
		if idx >= maxBucket {
			t.Fatalf("bucket index %d out of range for %d", idx, v)
		}
		prev = idx
	}
	// Relative bucket width stays under 2^-subBits for values >= subCount.
	for _, v := range []int64{100, 5000, 1 << 30} {
		lo, hi := bucketBounds(bucketIndex(v))
		if width := float64(hi - lo + 1); width/float64(lo) > 1.0/float64(subCount)+1e-12 {
			t.Fatalf("bucket at %d too wide: [%d,%d]", v, lo, hi)
		}
	}
}

// TestQuantileVsExactSort pins the histogram's accuracy contract: on
// small N the estimated quantile is within one bucket width (~3.1%
// relative, or one unit absolute near zero) of the exact order
// statistic from a full sort.
func TestQuantileVsExactSort(t *testing.T) {
	rng := stats.NewRNG(7)
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(400)
		var h LatencyHistogram
		vals := make([]int64, n)
		for i := range vals {
			// Heavy-tailed values spanning several octaves, like latencies.
			v := int64(math.Exp(rng.Range(0, 18)))
			vals[i] = v
			h.Observe(time.Duration(v))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			exact := vals[int(q*float64(n-1))]
			got := int64(h.Quantile(q))
			tol := float64(exact)/float64(subCount) + 1
			if math.Abs(float64(got-exact)) > tol {
				t.Fatalf("trial %d n=%d q=%g: got %d, exact %d (tol %g)", trial, n, q, got, exact, tol)
			}
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var h LatencyHistogram
	if h.Quantile(0.5) != 0 || h.total != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Observe(42)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Quantile(q); got != 42 {
			t.Fatalf("single-value histogram q=%g: got %d", q, got)
		}
	}
	h.Observe(-5) // clamps to zero
	if h.min != 0 || h.max != 42 {
		t.Fatalf("min/max after clamp: %d/%d", h.min, h.max)
	}
}

// TestMergeEquivalence pins the merge contract: observing a stream
// split across K histograms then merging gives the identical counters
// and quantiles as one histogram observing everything.
func TestMergeEquivalence(t *testing.T) {
	rng := stats.NewRNG(11)
	var whole LatencyHistogram
	parts := make([]LatencyHistogram, 4)
	for i := 0; i < 10000; i++ {
		v := time.Duration(math.Exp(rng.Range(0, 20)))
		whole.Observe(v)
		parts[i%4].Observe(v)
	}
	var merged LatencyHistogram
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if merged.total != whole.total || merged.min != whole.min || merged.max != whole.max {
		t.Fatalf("merge mismatch: count %d/%d min %d/%d max %d/%d",
			merged.total, whole.total, merged.min, whole.min, merged.max, whole.max)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("q=%g: merged %d != whole %d", q, merged.Quantile(q), whole.Quantile(q))
		}
	}
	// Merging an empty histogram is a no-op.
	var empty LatencyHistogram
	before := merged.Summarize()
	merged.Merge(&empty)
	merged.Merge(nil)
	if merged.Summarize() != before {
		t.Fatal("merging empty/nil histogram changed the summary")
	}
}

func TestSummaryNormalize(t *testing.T) {
	var h LatencyHistogram
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	s := h.Summarize().Normalize()
	if s.Count != 2 {
		t.Fatalf("normalize must keep count, got %d", s.Count)
	}
	if s.MinNS != 0 || s.P50NS != 0 || s.P99NS != 0 || s.MaxNS != 0 {
		t.Fatalf("normalize must zero wall-time fields: %+v", s)
	}
}
