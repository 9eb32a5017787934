package detection

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/platform"
)

func TestAnomalyScoreDirection(t *testing.T) {
	s := DefaultAnomalyScorer()
	fraudish := Features{Rate: 500, AdsCreated: 3, Keywords: 10, BroadShare: 0.9, ExactShare: 0, AgeDays: 2}
	legitish := Features{Rate: 5, AdsCreated: 40, Keywords: 300, BroadShare: 0.3, ExactShare: 0.5, AgeDays: 300}
	if s.Score(fraudish) <= s.Score(legitish) {
		t.Fatalf("scorer inverted: fraud=%v legit=%v", s.Score(fraudish), s.Score(legitish))
	}
}

func TestAnomalyScoreBounded(t *testing.T) {
	s := DefaultAnomalyScorer()
	for _, f := range []Features{{}, {Rate: 1e9, BroadShare: 1}, {AdsCreated: 1e9, AgeDays: 1e6}} {
		v := s.Score(f)
		// Extreme inputs may saturate float sigmoid to exactly 0 or 1.
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("score %v for %+v", v, f)
		}
	}
}

func TestExtractFeatures(t *testing.T) {
	acct := &platform.Account{AdsCreated: 4, KeywordsCreated: 12, Impressions: 300}
	agg := &dataset.AccountAgg{}
	agg.BidCount[platform.MatchExact] = 2
	agg.BidCount[platform.MatchPhrase] = 3
	agg.BidCount[platform.MatchBroad] = 5
	f := ExtractFeatures(acct, agg, 10)
	if f.Rate != 30 || f.AdsCreated != 4 || f.Keywords != 12 {
		t.Fatalf("features %+v", f)
	}
	if f.BroadShare != 0.8 || f.ExactShare != 0.2 {
		t.Fatalf("bid shares %+v", f)
	}
	// Nil aggregate and zero days are safe.
	f = ExtractFeatures(acct, nil, 0)
	if f.Rate != 0 || f.BroadShare != 0 {
		t.Fatalf("degenerate features %+v", f)
	}
}

func TestAUC(t *testing.T) {
	// Perfect separation.
	if got := AUC([]float64{0.9, 0.8, 0.2, 0.1}, []bool{true, true, false, false}); got != 1 {
		t.Fatalf("perfect AUC %v", got)
	}
	// Perfectly inverted.
	if got := AUC([]float64{0.1, 0.2, 0.8, 0.9}, []bool{true, true, false, false}); got != 0 {
		t.Fatalf("inverted AUC %v", got)
	}
	// All ties -> 0.5 via midrank.
	if got := AUC([]float64{0.5, 0.5, 0.5, 0.5}, []bool{true, false, true, false}); got != 0.5 {
		t.Fatalf("tied AUC %v", got)
	}
	// Degenerate class -> 0.5.
	if got := AUC([]float64{1, 2}, []bool{true, true}); got != 0.5 {
		t.Fatalf("single-class AUC %v", got)
	}
}

func TestAUCPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	AUC([]float64{1}, []bool{true, false})
}
