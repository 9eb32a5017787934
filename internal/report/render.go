package report

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// cdfQuantiles are the standard quantiles rendered for CDF figures.
var cdfQuantiles = []float64{0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}

// CDFRows renders a family of named ECDFs as aligned quantile rows, one
// column per series — the textual equivalent of the paper's CDF plots.
func CDFRows(names []string, ecdfs []*stats.ECDF) []string {
	var out []string
	h := fmt.Sprintf("%8s", "q")
	for _, n := range names {
		if len(n) > 13 {
			n = n[:13]
		}
		h += fmt.Sprintf(" %13s", n)
	}
	out = append(out, h)
	for _, q := range cdfQuantiles {
		row := fmt.Sprintf("%7.0f%%", q*100)
		for _, e := range ecdfs {
			row += fmt.Sprintf(" %13.5g", e.Quantile(q))
		}
		out = append(out, row)
	}
	n := fmt.Sprintf("%8s", "n")
	for _, e := range ecdfs {
		n += fmt.Sprintf(" %13d", e.N())
	}
	out = append(out, n)
	return out
}

// SparkSeries renders a numeric series as a compact unicode sparkline
// with its range, for the time-series figures.
func SparkSeries(label string, values []float64) string {
	if len(values) == 0 {
		return label + ": (empty)"
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(blocks)-1))
		}
		b.WriteRune(blocks[idx])
	}
	return fmt.Sprintf("%-24s [%.4g .. %.4g] %s", label, lo, hi, b.String())
}

// Pct formats a fraction as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
