// Package clicks models user engagement with a rendered ad page: a
// position-biased click model in which the probability of a click decays
// with ad position (mainline far above sidebar), scaled by the ad's
// intrinsic quality and the precision of the keyword match.
//
// "the mainline traditionally receiv[es] more clicks than the sidebar, and
// higher positions in the page typically provid[e] more traffic" (§6.2.1).
package clicks

import (
	"repro/internal/auction"
	"repro/internal/stats"
)

// Model holds the click model parameters.
type Model struct {
	// MainlineBias[i] is the examination probability of mainline position
	// i (0-based). SidebarBias likewise for sidebar slots.
	MainlineBias []float64
	SidebarBias  []float64
	// BaseCTR scales examination probability into click probability for
	// an ad of quality 1.0 with an exact match.
	BaseCTR float64
}

// DefaultModel returns the standard position-bias curve: steeply decaying
// within the mainline, and an order of magnitude lower in the sidebar.
func DefaultModel() *Model {
	return &Model{
		MainlineBias: []float64{1.00, 0.55, 0.34, 0.22},
		SidebarBias:  []float64{0.085, 0.06, 0.045, 0.033, 0.025},
		BaseCTR:      0.32,
	}
}

// examination returns the probability that the user examines the ad at the
// given placement.
func (m *Model) examination(p auction.Placement) float64 {
	if p.Mainline {
		i := p.Position - 1
		if i >= len(m.MainlineBias) {
			i = len(m.MainlineBias) - 1
		}
		return m.MainlineBias[i]
	}
	// Sidebar positions start after the mainline block; index within the
	// sidebar by subtracting the number of mainline ads above, which is
	// Position-1 minus the sidebar ads above (sidebar ads are contiguous
	// at the bottom, so use a simple offset-from-end heuristic).
	i := p.Position - 1
	if i >= len(m.SidebarBias) {
		i = len(m.SidebarBias) - 1
	}
	return m.SidebarBias[i]
}

// ClickProbability returns P(click) for one placement.
func (m *Model) ClickProbability(p auction.Placement) float64 {
	cp := m.examination(p) * m.BaseCTR * p.Ref.Ad.Quality * p.Relevance
	if cp > 1 {
		cp = 1
	}
	return cp
}

// SimulateInto rolls clicks for every placement on a page: the indices
// (into placements) that were clicked are appended to buf[:0] (typically
// a reused scratch) and the extended slice is returned. Users click
// independently per position here; at realistic CTRs the difference from
// a strict cascade model is negligible, and independence keeps the model
// embarrassingly parallel across queries.
func (m *Model) SimulateInto(rng *stats.RNG, placements []auction.Placement, buf []int) []int {
	buf = buf[:0]
	for i, p := range placements {
		if rng.Bool(m.ClickProbability(p)) {
			buf = append(buf, i)
		}
	}
	return buf
}
