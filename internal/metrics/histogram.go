// Package metrics is the streaming measurement layer for the serving
// cluster: HDR-style log-bucketed latency histograms with cheap
// quantiles and lossless merge, and per-traffic-class counters (one
// recorder per class for a whole run) that roll up into a
// machine-readable report (p50/p90/p99/p999, shed rate, error rate,
// per-class fairness). Everything here is plain counters —
// no wall-clock reads, no goroutines — so a report built from a seeded
// run is byte-identical across runs once its duration fields are
// normalized.
package metrics

import (
	"fmt"
	"math/bits"
	"time"
)

// Log-linear bucket geometry (the HdrHistogram layout): values below
// 2^subBits land in exact unit buckets; above that, each power-of-two
// octave is split into 2^subBits sub-buckets, so the relative width of
// any bucket is at most 1/2^subBits (~3.1%) and a midpoint estimate is
// within ~1.6% of the true value. The geometry is fixed at compile
// time, which is what makes Merge a plain element-wise add.
const (
	subBits   = 5
	subCount  = 1 << subBits // 32
	maxBucket = (64-subBits)*subCount + subCount
)

// LatencyHistogram records int64 nanosecond observations into
// log-bucketed counters. The zero value is ready to use. Not safe for
// concurrent use: each load-generation worker owns one and the owner
// merges them (Merge) at the end — the same single-writer contract the
// event-log shards use.
type LatencyHistogram struct {
	counts [maxBucket]uint64
	total  uint64
	max    int64
	min    int64
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // e >= subBits
	return (e-subBits+1)*subCount + int(uint64(v)>>(uint(e)-subBits)) - subCount
}

// bucketBounds returns the [lo, hi] value range a bucket covers.
func bucketBounds(idx int) (lo, hi int64) {
	if idx < subCount {
		return int64(idx), int64(idx)
	}
	e := idx/subCount + subBits - 1
	sub := idx%subCount + subCount
	width := int64(1) << (uint(e) - subBits)
	lo = int64(sub) * width
	return lo, lo + width - 1
}

// Observe records one latency. Negative durations clamp to zero.
func (h *LatencyHistogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketIndex(v)]++
	h.total++
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) as the
// midpoint of the bucket holding the rank-q observation, clamped to the
// observed [min, max]. Returns 0 when empty. The estimate is within
// one bucket width (~3.1% relative) of the exact order statistic.
func (h *LatencyHistogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.total-1))
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		if seen > rank {
			lo, hi := bucketBounds(i)
			mid := lo + (hi-lo)/2
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return time.Duration(mid)
		}
	}
	return time.Duration(h.max)
}

// Merge folds other into h (element-wise add; geometry is fixed so the
// merge is lossless). Merging an empty histogram is a no-op.
func (h *LatencyHistogram) Merge(other *LatencyHistogram) {
	if other == nil || other.total == 0 {
		return
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for i, c := range other.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	h.total += other.total
}

// Summary is the wire form of a histogram: the standard latency
// quantiles, in nanoseconds so the report is integer-stable.
type Summary struct {
	Count uint64 `json:"count"`
	MinNS int64  `json:"min_ns"`
	P50NS int64  `json:"p50_ns"`
	P90NS int64  `json:"p90_ns"`
	P99NS int64  `json:"p99_ns"`
	P999  int64  `json:"p999_ns"`
	MaxNS int64  `json:"max_ns"`
}

// Summarize extracts the standard quantile summary.
func (h *LatencyHistogram) Summarize() Summary {
	return Summary{
		Count: h.total,
		MinNS: h.min,
		P50NS: int64(h.Quantile(0.50)),
		P90NS: int64(h.Quantile(0.90)),
		P99NS: int64(h.Quantile(0.99)),
		P999:  int64(h.Quantile(0.999)),
		MaxNS: h.max,
	}
}

// Normalize zeroes every wall-time-derived field of a Summary, leaving
// only the count — the transform the golden scenario report applies so
// byte comparison survives host speed differences.
func (s Summary) Normalize() Summary {
	return Summary{Count: s.Count}
}

// String renders the summary for logs.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d p50=%s p99=%s max=%s",
		s.Count, time.Duration(s.P50NS), time.Duration(s.P99NS), time.Duration(s.MaxNS))
}
