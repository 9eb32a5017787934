package main

// The arithmetic internal/stats does not have: the tail count behind a
// percentile, the best decile a run reports from its windows, and the
// quartile spread the benchmark contract is defined on. Mean, median and
// nearest-rank quantiles are internal/stats'.

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// best is the figure a run reports from its windows: the value at the
// best tenth of them — the 10th percentile of a lower-is-better series,
// the 90th of a higher-is-better one. On a shared host noise only ever
// slows a window down, and it comes in bursts of seconds that cover
// anything from a fifth to four fifths of a run, so the median over
// windows flips between the quiet level and the noisy one from run to
// run (ten-run spreads of 15 to 30 % on a busy host). The best decile
// stays at the quiet level as long as a tenth of the run was quiet, and
// unlike the single best window it does not rest on one lucky sample.
func best(v []float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return stats.Quantile(v, 0.1)
	}
	// Nearest rank from the top, so both directions skip as many windows.
	neg := make([]float64, len(v))
	for i, x := range v {
		neg[i] = -x
	}
	return -stats.Quantile(neg, 0.1)
}

// windowed cuts v into consecutive windows of n samples (a shorter last
// one is dropped unless it is the only one) and returns f of each.
func windowed(v []float64, n int, f func([]float64) float64) []float64 {
	if len(v) <= n {
		return []float64{f(v)}
	}
	var out []float64
	for i := 0; i+n <= len(v); i += n {
		out = append(out, f(v[i:i+n]))
	}
	return out
}

// beyond is how many of n samples lie strictly above the nearest-rank
// p-quantile's rank — the count the tail percentile's trustworthiness
// rests on.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p*float64(n)))
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(v, n=4) (the exclusive method), which is what
// the benchmark contract's spread is defined on; q2 is the median that
// averages the two middle samples of an even count. One sample is all
// three; none reads 0.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
