package core

import (
	"repro/internal/platform"
	"repro/internal/verticals"
)

// CompetitionExposure returns the proportion of the account's impressions
// (Figure 10) and spend (Figure 11) in window wi that occurred in
// competition with fraudulent advertisers. ok is false when the account
// has no impressions (or, for spend, no spend) in the window.
func (s *Study) CompetitionExposure(id platform.AccountID, wi int) (imprFrac, spendFrac float64, ok bool) {
	w := s.WindowAgg(id, wi)
	if w == nil || w.Impressions == 0 {
		return 0, 0, false
	}
	imprFrac = float64(w.InflImpressions) / float64(w.Impressions)
	if w.Spend > 0 {
		spendFrac = w.InflSpend / w.Spend
	}
	return imprFrac, spendFrac, true
}

// PositionDistributions pools the first-page ad-position histograms of a
// subset, split organic vs influenced (Figures 12 and 13). The returned
// slices are impression counts per position (index 0 = position 1).
func (s *Study) PositionDistributions(sub Subset, wi int) (organic, influenced []int64) {
	organic = make([]int64, 20)
	influenced = make([]int64, 20)
	for _, id := range sub.IDs {
		w := s.WindowAgg(id, wi)
		if w == nil {
			continue
		}
		for i := range w.PosOrganic {
			organic[i] += int64(w.PosOrganic[i])
			influenced[i] += int64(w.PosInfluenced[i])
		}
	}
	return organic, influenced
}

// TopPositionShare returns the fraction of a histogram's impressions at
// position 1 (the §6.2.1 "top ad position" statistic).
func TopPositionShare(hist []int64) float64 {
	var total int64
	for _, n := range hist {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(hist[0]) / float64(total)
}

// EngagementSplit holds per-account CTR or CPC values under the two
// competition regimes, over a subset restricted to dubious verticals
// (Figures 14–17 are measured "in dubious verticals").
type EngagementSplit struct {
	Organic    []float64
	Influenced []float64
}

// dubiousOnly filters a subset to accounts whose primary vertical is
// fraud-targeted.
func (s *Study) dubiousOnly(sub Subset) []platform.AccountID {
	var out []platform.AccountID
	for _, id := range sub.IDs {
		if verticals.IsDubious(s.P.MustAccount(id).PrimaryVertical) {
			out = append(out, id)
		}
	}
	return out
}

// CTRSplit computes per-account click-through rates with and without
// fraud competition over the subset's dubious-vertical accounts
// (Figures 14 and 16). Accounts enter each side only when they have
// impressions under that regime.
func (s *Study) CTRSplit(sub Subset, wi int) EngagementSplit {
	var es EngagementSplit
	for _, id := range s.dubiousOnly(sub) {
		w := s.WindowAgg(id, wi)
		if w == nil {
			continue
		}
		if oi := w.OrganicImpressions(); oi > 0 {
			es.Organic = append(es.Organic, float64(w.OrganicClicks())/float64(oi))
		}
		if w.InflImpressions > 0 {
			es.Influenced = append(es.Influenced, float64(w.InflClicks)/float64(w.InflImpressions))
		}
	}
	return es
}

// CPCSplit computes per-account average cost-per-click with and without
// fraud competition over the subset's dubious-vertical accounts
// (Figures 15 and 17). Accounts enter each side only when they received
// clicks under that regime.
func (s *Study) CPCSplit(sub Subset, wi int) EngagementSplit {
	var es EngagementSplit
	for _, id := range s.dubiousOnly(sub) {
		w := s.WindowAgg(id, wi)
		if w == nil {
			continue
		}
		if oc := w.OrganicClicks(); oc > 0 {
			es.Organic = append(es.Organic, w.OrganicSpend()/float64(oc))
		}
		if w.InflClicks > 0 {
			es.Influenced = append(es.Influenced, w.InflSpend/float64(w.InflClicks))
		}
	}
	return es
}

// NormalizeBy divides every value in both sides by norm (Figures 15/17
// normalize CPCs by the median organic CPC of 'NF with clicks').
func (e EngagementSplit) NormalizeBy(norm float64) EngagementSplit {
	if norm <= 0 {
		return e
	}
	out := EngagementSplit{
		Organic:    make([]float64, len(e.Organic)),
		Influenced: make([]float64, len(e.Influenced)),
	}
	for i, v := range e.Organic {
		out.Organic[i] = v / norm
	}
	for i, v := range e.Influenced {
		out.Influenced[i] = v / norm
	}
	return out
}
