package dataset

import (
	"testing"

	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/simclock"
)

func testCollector() *Collector {
	windows := []simclock.NamedWindow{
		{Name: "w0", Window: simclock.Window{Start: 10, End: 20}},
		{Name: "w1", Window: simclock.Window{Start: 15, End: 30}},
	}
	return NewCollector(windows, simclock.Window{Start: 10, End: 20})
}

func TestImpressionAggregation(t *testing.T) {
	c := testCollector()
	// Day 12 falls in w0 only; day 16 in both.
	c.Impression(12, 1, false, 0, market.US, 1, platform.MatchExact, false, true, 2.0)
	c.Impression(16, 1, false, 0, market.US, 3, platform.MatchPhrase, true, false, 0)
	agg := c.Agg(1)
	if agg == nil {
		t.Fatal("no aggregate")
	}
	w0 := c.WindowAgg(1, 0)
	w1 := c.WindowAgg(1, 1)
	if w0 == nil || w1 == nil {
		t.Fatal("window aggregates missing")
	}
	if w0.Impressions != 2 || w1.Impressions != 1 {
		t.Fatalf("window impressions %d/%d", w0.Impressions, w1.Impressions)
	}
	if w0.Clicks != 1 || w0.Spend != 2.0 {
		t.Fatalf("w0 clicks/spend %d/%v", w0.Clicks, w0.Spend)
	}
	if w0.InflImpressions != 1 || w0.OrganicImpressions() != 1 {
		t.Fatalf("competition split wrong: infl=%d org=%d", w0.InflImpressions, w0.OrganicImpressions())
	}
	if w0.PosOrganic[0] != 1 || w0.PosInfluenced[2] != 1 {
		t.Fatal("position histograms wrong")
	}
}

func TestWeeklySeries(t *testing.T) {
	c := testCollector()
	c.Impression(0, 2, true, 0, market.US, 1, platform.MatchExact, false, true, 1.0)
	c.Impression(6, 2, true, 0, market.US, 1, platform.MatchExact, false, false, 0)
	c.Impression(7, 2, true, 0, market.US, 1, platform.MatchExact, false, true, 3.0)
	agg := c.Agg(2)
	if len(agg.Weeks) != 2 {
		t.Fatalf("weeks %d, want 2", len(agg.Weeks))
	}
	if agg.Weeks[0].Week != 0 || agg.Weeks[0].Impressions != 2 || agg.Weeks[0].Spend != 1.0 {
		t.Fatalf("week 0 agg %+v", agg.Weeks[0])
	}
	if agg.Weeks[1].Week != 1 || agg.Weeks[1].Clicks != 1 || agg.Weeks[1].Spend != 3.0 {
		t.Fatalf("week 1 agg %+v", agg.Weeks[1])
	}
}

func TestDeepPositionClampsToLastBucket(t *testing.T) {
	c := testCollector()
	c.Impression(12, 1, false, 0, market.US, 99, platform.MatchExact, false, false, 0)
	w0 := c.WindowAgg(1, 0)
	if w0.PosOrganic[19] != 1 {
		t.Fatal("deep position not clamped to last bucket")
	}
}

func TestSampleWindowCounters(t *testing.T) {
	c := testCollector()
	// In-window fraud click.
	c.Impression(12, 1, true, 2, market.BR, 1, platform.MatchBroad, false, true, 1.0)
	// In-window nonfraud click.
	c.Impression(12, 2, false, 0, market.BR, 1, platform.MatchExact, false, true, 1.0)
	// Out-of-window click: must not count.
	c.Impression(25, 1, true, 2, market.BR, 1, platform.MatchBroad, false, true, 1.0)
	fs := c.ClicksByCountry()[market.BR]
	if fs == nil || fs.Fraud != 1 || fs.Nonfraud != 1 {
		t.Fatalf("country counters %+v", fs)
	}
	bm := c.ClicksByMatch()
	if bm[platform.MatchBroad].Fraud != 1 || bm[platform.MatchExact].Nonfraud != 1 {
		t.Fatal("match counters wrong")
	}
	if bm[platform.MatchBroad].Total() != 1 {
		t.Fatal("out-of-window click leaked into sample counters")
	}
}

func TestMonthVerticalSpendOnlyFraudClicks(t *testing.T) {
	c := testCollector()
	c.Impression(35, 1, true, 4, market.US, 1, platform.MatchExact, false, true, 2.5)
	c.Impression(35, 2, false, 4, market.US, 1, platform.MatchExact, false, true, 2.5)
	fraudAgg := c.Agg(1)
	if fraudAgg.MonthVerticalSpend == nil {
		t.Fatal("fraud month-vertical spend missing")
	}
	if got := fraudAgg.MonthVerticalSpend[PackMonthVertical(1, 4)]; got != 2.5 {
		t.Fatalf("fraud spend %v", got)
	}
	if c.Agg(2).MonthVerticalSpend != nil {
		t.Fatal("nonfraud account tracked month-vertical spend")
	}
}

func TestPackUnpackMonthVertical(t *testing.T) {
	for _, c := range []struct{ m, v int }{{0, 0}, {24, 38}, {100, 255}} {
		m, v := UnpackMonthVertical(PackMonthVertical(c.m, c.v))
		if m != c.m || v != c.v {
			t.Fatalf("roundtrip (%d,%d) -> (%d,%d)", c.m, c.v, m, v)
		}
	}
}

func TestCampaignActions(t *testing.T) {
	c := testCollector()
	for _, act := range []struct {
		kind CampaignAction
		n    int
	}{{ActionAdCreate, 2}, {ActionKwCreate, 10}, {ActionAdModify, 1}, {ActionKwModify, 4}} {
		for i := 0; i < act.n; i++ {
			c.Campaign(12, 3, act.kind)
		}
	}
	c.Campaign(5, 3, ActionAdCreate) // outside every window
	w0 := c.WindowAgg(3, 0)
	if w0.AdsCreated != 2 || w0.KwCreated != 10 || w0.AdsModified != 1 || w0.KwModified != 4 {
		t.Fatalf("campaign counters %+v", w0)
	}
}

// TestFoldsAllocationFree: once an account's window aggregates exist, a
// campaign action, a click and a detection on a window day allocate
// nothing. The live run folds one campaign action per placed bid, so an
// allocation here would be paid per bid.
func TestFoldsAllocationFree(t *testing.T) {
	c := testCollector()
	const day = 16 // inside both windows
	c.Impression(day, 1, true, 0, market.US, 1, platform.MatchExact, true, true, 1.0)
	c.Detection(DetectionRecord{Account: 1, At: simclock.StampAt(day, 0.5), Stage: StagePolicy})
	row := ClickRow{Account: 1, Match: platform.MatchExact, Country: market.US, Fraud: true, FraudComp: true, Price: 0.5}
	// Pre-size the record list: its amortized growth is the record
	// itself, not fold overhead.
	c.detections = make([]DetectionRecord, 0, 1024)
	for name, fold := range map[string]func(){
		"Campaign":   func() { c.Campaign(day, 1, ActionKwCreate) },
		"ApplyClick": func() { c.ApplyClick(day, row) },
		"Detection": func() {
			c.Detection(DetectionRecord{Account: 1, At: simclock.StampAt(day, 0.5), Stage: StagePolicy})
		},
	} {
		if n := testing.AllocsPerRun(100, fold); n != 0 {
			t.Errorf("%s on a window day: %v allocs/op, want 0", name, n)
		}
	}
}

func TestBidCreated(t *testing.T) {
	c := testCollector()
	c.BidCreated(4, platform.MatchExact, 1.0)
	c.BidCreated(4, platform.MatchExact, 3.0)
	c.BidCreated(4, platform.MatchBroad, 0.5)
	agg := c.Agg(4)
	if agg.BidCount[platform.MatchExact] != 2 || agg.BidSum[platform.MatchExact] != 4.0 {
		t.Fatal("exact bid counters")
	}
	if agg.BidCount[platform.MatchBroad] != 1 {
		t.Fatal("broad bid counters")
	}
}

func TestDetectionRecords(t *testing.T) {
	c := testCollector()
	if _, ok := c.DetectedAt(9); ok {
		t.Fatal("phantom detection")
	}
	c.Detection(DetectionRecord{Account: 9, At: simclock.StampAt(5, 0.5), Stage: StageBlacklist})
	c.Detection(DetectionRecord{Account: 9, At: simclock.StampAt(8, 0.5), Stage: StagePayment})
	at, ok := c.DetectedAt(9)
	if !ok || at != simclock.StampAt(5, 0.5) {
		t.Fatalf("DetectedAt = %v, %v — must keep the first record", at, ok)
	}
	if len(c.Detections()) != 2 {
		t.Fatal("detection log must keep every record")
	}
}

func TestClicksByMatchTracksAdvertiserTotals(t *testing.T) {
	c := testCollector()
	c.Impression(12, 5, false, 0, market.US, 1, platform.MatchPhrase, false, true, 1.0)
	c.Impression(25, 5, false, 0, market.US, 1, platform.MatchPhrase, false, true, 1.0)
	agg := c.Agg(5)
	// Per-account match clicks accumulate regardless of the sample window.
	if agg.ClicksByMatch[platform.MatchPhrase] != 2 {
		t.Fatalf("per-account match clicks %v", agg.ClicksByMatch)
	}
}

func TestStageStrings(t *testing.T) {
	for st, want := range map[DetectionStage]string{
		StageScreening: "screening", StagePayment: "payment",
		StageRateAnomaly: "rate-anomaly", StageBlacklist: "blacklist",
		StageComplaint: "complaint", StagePolicy: "policy",
		StageManualReview: "manual-review",
	} {
		if st.String() != want {
			t.Fatalf("stage %d = %q", st, st.String())
		}
	}
}
