package figures

import (
	"encoding/xml"
	"strings"
	"testing"
)

// wellFormed checks the SVG parses as XML.
func wellFormed(t *testing.T, svg string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(svg))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("malformed SVG: %v\n%s", err, svg[:min(len(svg), 400)])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func cdfSeries(name string, xs []float64) Series {
	s := Series{Name: name}
	for i, x := range xs {
		s.X = append(s.X, x)
		s.Y = append(s.Y, float64(i+1)/float64(len(xs)))
	}
	return s
}

func TestCDFPlotWellFormed(t *testing.T) {
	svg := CDFPlot("Lifetimes", "days", []Series{
		cdfSeries("fraud", []float64{0.1, 0.5, 1, 5, 20}),
		{Name: "nonfraud", X: []float64{1, 10, 100}, Y: []float64{0.2, 0.6, 1.0}, Dashed: true},
	}, true)
	wellFormed(t, svg)
	for _, want := range []string{"Lifetimes", "fraud", "nonfraud", "polyline", "1e0", "stroke-dasharray"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
}

func TestCDFPlotLinear(t *testing.T) {
	svg := CDFPlot("Shares", "proportion", []Series{
		cdfSeries("x", []float64{0, 0.25, 0.5, 0.75, 1}),
	}, false)
	wellFormed(t, svg)
	if strings.Contains(svg, "1e0") {
		t.Fatal("linear plot rendered log ticks")
	}
}

func TestCDFPlotDropsNonPositiveOnLog(t *testing.T) {
	svg := CDFPlot("t", "x", []Series{
		{Name: "s", X: []float64{0, -1, 1, 10}, Y: []float64{0.1, 0.2, 0.5, 1}},
	}, true)
	wellFormed(t, svg)
	if !strings.Contains(svg, "polyline") {
		t.Fatal("series with some positive points must still draw")
	}
}

func TestCDFPlotEmpty(t *testing.T) {
	wellFormed(t, CDFPlot("empty", "x", nil, true))
	wellFormed(t, CDFPlot("empty", "x", []Series{{Name: "n"}}, false))
}

func TestLinePlot(t *testing.T) {
	svg := LinePlot("Weekly activity", "week", "spend", []Series{
		{Name: "in-window", X: []float64{0, 1, 2, 3}, Y: []float64{1, 3, 2, 0.5}},
		{Name: "out-of-window", X: []float64{0, 1, 2, 3}, Y: []float64{0.2, 0.4, 0.3, 0.1}, Dashed: true},
	})
	wellFormed(t, svg)
	if !strings.Contains(svg, "in-window") || !strings.Contains(svg, "Weekly activity") {
		t.Fatal("labels missing")
	}
}

func TestEscape(t *testing.T) {
	svg := LinePlot(`<&"title">`, "x", "y", []Series{{Name: "<b>", X: []float64{0, 1}, Y: []float64{1, 2}}})
	wellFormed(t, svg)
	if strings.Contains(svg, "<&") || strings.Contains(svg, "<b>") {
		t.Fatal("title or series name not escaped")
	}
}
