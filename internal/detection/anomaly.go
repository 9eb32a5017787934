package detection

import (
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/platform"
)

// AnomalyScorer is the classical alternative to the production pipeline: a
// fixed-weight behavioral scorer over observable account features. The
// paper's discussion (§7) argues that at Bing's maturity "new anomaly
// detection strategies are likely to have diminishing returns ... those
// that remain are not easily detected by their behavior"; this scorer
// exists so that claim can be tested quantitatively (the ext1 experiment):
// it separates the fraud population as a whole reasonably well, but the
// successful fraud — the accounts carrying the spend — score like
// legitimate advertisers.
type AnomalyScorer struct {
	// Weights over the standardized feature vector; positive pushes
	// toward "fraud".
	WRate      float64 // log impressions/day
	WAds       float64 // log ads created (fewer = more fraud-like)
	WKeywords  float64 // log keywords (fewer = more fraud-like)
	WBroad     float64 // broad+phrase share of bids
	WExact     float64 // exact share (negative weight expected)
	WShortLife float64 // account age in days (younger = more fraud-like)
	Bias       float64
}

// DefaultAnomalyScorer returns hand-set weights in the direction §5's
// population-level contrasts point: high serving rate, small campaign
// surface, precision-averse bidding, young account.
func DefaultAnomalyScorer() *AnomalyScorer {
	return &AnomalyScorer{
		WRate:      0.9,
		WAds:       -0.6,
		WKeywords:  -0.5,
		WBroad:     1.2,
		WExact:     -0.8,
		WShortLife: -0.012,
		Bias:       -1.0,
	}
}

// Features is the observable behavioral summary of one account.
type Features struct {
	Rate       float64 // impressions per active day
	AdsCreated float64
	Keywords   float64
	BroadShare float64
	ExactShare float64
	AgeDays    float64
}

// ExtractFeatures summarizes an account from the customer tables and
// collected aggregates. activeDays is the account's observed active span.
func ExtractFeatures(acct *platform.Account, agg *dataset.AccountAgg, activeDays float64) Features {
	f := Features{
		AdsCreated: float64(acct.AdsCreated),
		Keywords:   float64(acct.KeywordsCreated),
		AgeDays:    activeDays,
	}
	if activeDays > 0 {
		f.Rate = float64(acct.Impressions) / activeDays
	}
	if agg != nil {
		var total int64
		for _, n := range agg.BidCount {
			total += n
		}
		if total > 0 {
			f.BroadShare = float64(agg.BidCount[platform.MatchBroad]+agg.BidCount[platform.MatchPhrase]) / float64(total)
			f.ExactShare = float64(agg.BidCount[platform.MatchExact]) / float64(total)
		}
	}
	return f
}

// Score maps features to a fraud propensity in (0, 1).
func (s *AnomalyScorer) Score(f Features) float64 {
	z := s.Bias +
		s.WRate*math.Log1p(f.Rate) +
		s.WAds*math.Log1p(f.AdsCreated) +
		s.WKeywords*math.Log1p(f.Keywords) +
		s.WBroad*f.BroadShare +
		s.WExact*f.ExactShare +
		s.WShortLife*f.AgeDays
	return 1 / (1 + math.Exp(-z))
}

// AUC computes the area under the ROC curve for scores against binary
// labels — the scalar the ext1 experiment reports for "all fraud" vs
// "successful fraud only". Ties are handled by midrank.
func AUC(scores []float64, positive []bool) float64 {
	if len(scores) != len(positive) {
		panic("detection: AUC length mismatch")
	}
	type sl struct {
		s   float64
		pos bool
	}
	items := make([]sl, len(scores))
	nPos, nNeg := 0, 0
	for i := range scores {
		items[i] = sl{scores[i], positive[i]}
		if positive[i] {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	sort.Slice(items, func(i, j int) bool { return items[i].s < items[j].s })
	// Midrank assignment.
	ranks := make([]float64, len(items))
	for i := 0; i < len(items); {
		j := i
		for j < len(items) && items[j].s == items[i].s {
			j++
		}
		mid := float64(i+j-1)/2 + 1
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		i = j
	}
	var rankSum float64
	for i, it := range items {
		if it.pos {
			rankSum += ranks[i]
		}
	}
	u := rankSum - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg))
}
