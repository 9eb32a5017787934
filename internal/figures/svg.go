// Package figures renders the reproduction's figures as standalone SVG
// documents using only the standard library: multi-series CDF plots with
// optional log-x axes (the shape of most of the paper's figures) and time
// series (such as Figure 8's vertical spend). The
// experiment harness writes one SVG per figure when asked
// (`experiments -svg DIR`).
package figures

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Layout constants for all charts.
const (
	chartWidth   = 640
	chartHeight  = 400
	marginLeft   = 60
	marginRight  = 160 // room for the legend
	marginTop    = 40
	marginBottom = 50
)

// palette cycles through series colors.
var palette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
	"#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
}

// Series is one named line in a chart.
type Series struct {
	Name string
	X    []float64
	Y    []float64
	// Dashed renders the series with a dash pattern (the paper uses
	// dashes for the non-fraud/influenced counterparts).
	Dashed bool
}

// doc accumulates SVG markup.
type doc struct {
	b strings.Builder
}

func newDoc(title string) *doc {
	d := &doc{}
	fmt.Fprintf(&d.b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		chartWidth, chartHeight, chartWidth, chartHeight)
	fmt.Fprintf(&d.b, `<rect width="%d" height="%d" fill="white"/>`+"\n", chartWidth, chartHeight)
	fmt.Fprintf(&d.b, `<text x="%d" y="22" font-family="sans-serif" font-size="15" font-weight="bold">%s</text>`+"\n",
		marginLeft, escape(title))
	return d
}

func (d *doc) finish() string {
	d.b.WriteString("</svg>\n")
	return d.b.String()
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// axes draws the plot frame, ticks and labels. xTicks maps plot-space
// fractions in [0,1] to tick labels; likewise yTicks.
func (d *doc) axes(xLabel, yLabel string, xTicks, yTicks map[float64]string) {
	x0, y0 := marginLeft, chartHeight-marginBottom
	x1, y1 := chartWidth-marginRight, marginTop
	fmt.Fprintf(&d.b, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#333"/>`+"\n",
		x0, y1, x1-x0, y0-y1)
	// Emit ticks in sorted position order: map iteration order would make
	// the rendered document nondeterministic run-to-run.
	for _, f := range sortedTickKeys(xTicks) {
		x := float64(x0) + f*float64(x1-x0)
		fmt.Fprintf(&d.b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#333"/>`+"\n", x, y0, x, y0+5)
		fmt.Fprintf(&d.b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
			x, y0+18, escape(xTicks[f]))
	}
	for _, f := range sortedTickKeys(yTicks) {
		y := float64(y0) - f*float64(y0-y1)
		fmt.Fprintf(&d.b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#333"/>`+"\n", x0-5, y, x0, y)
		fmt.Fprintf(&d.b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
			x0-8, y+4, escape(yTicks[f]))
	}
	fmt.Fprintf(&d.b, `<text x="%d" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n",
		(x0+x1)/2, chartHeight-12, escape(xLabel))
	fmt.Fprintf(&d.b, `<text x="16" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>`+"\n",
		(y0+y1)/2, (y0+y1)/2, escape(yLabel))
}

// legend draws the series key on the right margin.
func (d *doc) legend(series []Series) {
	x := chartWidth - marginRight + 12
	y := marginTop + 10
	for i, s := range series {
		color := palette[i%len(palette)]
		dash := ""
		if s.Dashed {
			dash = ` stroke-dasharray="6,3"`
		}
		fmt.Fprintf(&d.b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"%s/>`+"\n",
			x, y, x+22, y, color, dash)
		fmt.Fprintf(&d.b, `<text x="%d" y="%d" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			x+28, y+4, escape(truncate(s.Name, 18)))
		y += 18
	}
}

func sortedTickKeys(ticks map[float64]string) []float64 {
	keys := make([]float64, 0, len(ticks))
	for f := range ticks {
		keys = append(keys, f)
	}
	sort.Float64s(keys)
	return keys
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// polyline draws one series in data space using the provided transforms.
func (d *doc) polyline(s Series, color string, tx, ty func(float64) float64) {
	var pts strings.Builder
	n := 0
	for i := range s.X {
		x, y := tx(s.X[i]), ty(s.Y[i])
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			continue
		}
		fmt.Fprintf(&pts, "%.1f,%.1f ", x, y)
		n++
	}
	if n < 2 {
		return
	}
	dash := ""
	if s.Dashed {
		dash = ` stroke-dasharray="6,3"`
	}
	fmt.Fprintf(&d.b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.8"%s/>`+"\n",
		strings.TrimSpace(pts.String()), color, dash)
}

// niceLogTicks returns tick positions/labels for a log axis over [lo, hi].
func niceLogTicks(lo, hi float64) map[float64]string {
	ticks := map[float64]string{}
	if !(lo > 0) || !(hi > lo) {
		return ticks
	}
	llo, lhi := math.Log10(lo), math.Log10(hi)
	if math.IsInf(llo, 0) || math.IsInf(lhi, 0) || !(lhi > llo) {
		return ticks
	}
	for e := math.Ceil(llo); e <= math.Floor(lhi); e++ {
		f := (e - llo) / (lhi - llo)
		ticks[f] = fmt.Sprintf("1e%d", int(e))
	}
	return ticks
}

// linTicks returns n+1 evenly spaced ticks over [lo, hi].
func linTicks(lo, hi float64, n int) map[float64]string {
	ticks := map[float64]string{}
	for i := 0; i <= n; i++ {
		f := float64(i) / float64(n)
		ticks[f] = fmt.Sprintf("%.3g", lo+f*(hi-lo))
	}
	return ticks
}

// CDFPlot renders cumulative-distribution curves: every series' Y values
// must be cumulative probabilities in [0, 1]. logX applies a log10 x-axis
// (non-positive x values are dropped).
func CDFPlot(title, xLabel string, series []Series, logX bool) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, x := range s.X {
			if logX && x <= 0 {
				continue
			}
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
	}
	if !(hi > lo) {
		lo, hi = 0, 1
	}
	if logX && lo <= 0 {
		lo = 0.001 // empty/degenerate input: keep the log axis finite
		if hi <= lo {
			hi = 1
		}
	}
	d := newDoc(title)
	var xTicks map[float64]string
	var tx func(float64) float64
	x0, x1 := float64(marginLeft), float64(chartWidth-marginRight)
	y0, y1 := float64(chartHeight-marginBottom), float64(marginTop)
	if logX {
		llo, lhi := math.Log10(lo), math.Log10(hi)
		if lhi <= llo {
			lhi = llo + 1
		}
		xTicks = niceLogTicks(lo, hi)
		tx = func(v float64) float64 {
			if v <= 0 {
				return math.NaN()
			}
			return x0 + (math.Log10(v)-llo)/(lhi-llo)*(x1-x0)
		}
	} else {
		xTicks = linTicks(lo, hi, 5)
		tx = func(v float64) float64 { return x0 + (v-lo)/(hi-lo)*(x1-x0) }
	}
	ty := func(p float64) float64 { return y0 - p*(y0-y1) }
	d.axes(xLabel, "CDF", xTicks, linTicks(0, 1, 5))
	for i, s := range series {
		d.polyline(s, palette[i%len(palette)], tx, ty)
	}
	d.legend(series)
	return d.finish()
}

// LinePlot renders plain time series (x linear, y linear from 0).
func LinePlot(title, xLabel, yLabel string, series []Series) string {
	xlo, xhi := math.Inf(1), math.Inf(-1)
	yhi := math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			if s.X[i] < xlo {
				xlo = s.X[i]
			}
			if s.X[i] > xhi {
				xhi = s.X[i]
			}
			if s.Y[i] > yhi {
				yhi = s.Y[i]
			}
		}
	}
	if !(xhi > xlo) {
		xlo, xhi = 0, 1
	}
	if !(yhi > 0) {
		yhi = 1
	}
	d := newDoc(title)
	x0, x1 := float64(marginLeft), float64(chartWidth-marginRight)
	y0, y1 := float64(chartHeight-marginBottom), float64(marginTop)
	tx := func(v float64) float64 { return x0 + (v-xlo)/(xhi-xlo)*(x1-x0) }
	ty := func(v float64) float64 { return y0 - v/yhi*(y0-y1) }
	d.axes(xLabel, yLabel, linTicks(xlo, xhi, 6), linTicks(0, yhi, 5))
	for i, s := range series {
		d.polyline(s, palette[i%len(palette)], tx, ty)
	}
	d.legend(series)
	return d.finish()
}
