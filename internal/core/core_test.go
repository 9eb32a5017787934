package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/verticals"
)

// fixture builds a small, fully controlled world:
//   - 6 fraudulent accounts (ids 0..5), 4 detected, 1 rejected, 1 evading
//   - 4 legitimate accounts (ids 6..9), 1 hit by friendly fire
//
// with hand-placed activity inside the window [100, 190).
type fixture struct {
	p   *platform.Platform
	c   *dataset.Collector
	s   *Study
	win simclock.NamedWindow
}

const horizonDays = 720

func newFixture(t *testing.T) *fixture {
	t.Helper()
	win := simclock.NamedWindow{Name: "test", Window: simclock.Window{Start: 100, End: 190}}
	p := platform.New()
	c := dataset.NewCollector([]simclock.NamedWindow{win}, win.Window)

	reg := func(day simclock.Day, country market.Country, fraud bool, v verticals.Vertical) *platform.Account {
		a := p.Register(platform.RegistrationRequest{
			At: simclock.StampAt(day, 0.25), Country: country, Fraud: fraud,
			PrimaryVertical: v, StolenPayment: fraud,
		})
		return a
	}
	approve := func(a *platform.Account) {
		if err := p.Approve(a.ID); err != nil {
			t.Fatal(err)
		}
	}
	shutdown := func(a *platform.Account, day simclock.Day, stage dataset.DetectionStage) {
		at := simclock.StampAt(day, 0.75)
		if err := p.Shutdown(a.ID, at, stage.String()); err != nil {
			t.Fatal(err)
		}
		c.Detection(dataset.DetectionRecord{Account: a.ID, At: at, Stage: stage})
	}

	// Fraud 0: active in window, detected day 150 (in-window for 90-day rule).
	f0 := reg(90, market.US, true, verticals.Downloads)
	approve(f0)
	f0.FirstAdAt = simclock.StampAt(91, 0.5)
	// Fraud 1: active in window, detected long after activity (day 400).
	f1 := reg(95, market.IN, true, verticals.TechSupport)
	approve(f1)
	f1.FirstAdAt = simclock.StampAt(96, 0.5)
	// Fraud 2: lives only before the window.
	f2 := reg(10, market.GB, true, verticals.Luxury)
	approve(f2)
	// Fraud 3: registered in window, detected quickly, never posted ads.
	f3 := reg(120, market.US, true, verticals.Downloads)
	approve(f3)
	// Fraud 4: rejected at screening (never active).
	f4 := reg(130, market.US, true, verticals.Downloads)
	if err := p.Reject(f4.ID, simclock.StampAt(130, 0.5), "screening"); err != nil {
		t.Fatal(err)
	}
	c.Detection(dataset.DetectionRecord{Account: f4.ID, At: simclock.StampAt(130, 0.5), Stage: dataset.StageScreening})
	// Fraud 5: evades detection entirely (labeled non-fraud by §3.2).
	f5 := reg(100, market.BR, true, verticals.Wrinkles)
	approve(f5)

	// Legit 6..8: active through the window.
	l6 := reg(0, market.US, false, verticals.Downloads)
	approve(l6)
	l7 := reg(0, market.DE, false, "insurance")
	approve(l7)
	l8 := reg(110, market.US, false, verticals.Luxury)
	approve(l8)
	// Legit 9: friendly fire at day 300.
	l9 := reg(0, market.FR, false, "travel")
	approve(l9)

	// Window activity. Fraud 0: heavy, mostly under fraud competition.
	for i := 0; i < 100; i++ {
		c.Impression(simclock.Day(100+i%80), f0.ID, true, verticals.Index(verticals.Downloads),
			market.US, 1+i%3, platform.MatchPhrase, i%10 != 0, i%4 == 0, 2.0)
	}
	// Fraud 1: lighter activity.
	for i := 0; i < 30; i++ {
		c.Impression(simclock.Day(100+i), f1.ID, true, verticals.Index(verticals.TechSupport),
			market.US, 2, platform.MatchBroad, true, i%3 == 0, 5.0)
	}
	// Legit 6: heavy organic + some influenced.
	for i := 0; i < 200; i++ {
		c.Impression(simclock.Day(100+i%85), l6.ID, false, verticals.Index(verticals.Downloads),
			market.US, 1+i%5, platform.MatchExact, i%20 == 0, i%5 == 0, 1.0)
	}
	// Legit 7: clean vertical, fully organic.
	for i := 0; i < 50; i++ {
		c.Impression(simclock.Day(100+i), l7.ID, false, verticals.Index("insurance"),
			market.DE, 1, platform.MatchExact, false, i%2 == 0, 1.5)
	}
	// Legit 8: dubious vertical, some of everything.
	for i := 0; i < 40; i++ {
		c.Impression(simclock.Day(115+i), l8.ID, false, verticals.Index(verticals.Luxury),
			market.US, 3, platform.MatchPhrase, i%2 == 0, i%4 == 0, 2.0)
	}

	// Bids.
	c.BidCreated(f0.ID, platform.MatchPhrase, 1.0)
	c.BidCreated(f0.ID, platform.MatchBroad, 1.0)
	c.BidCreated(l6.ID, platform.MatchExact, 1.0)
	c.BidCreated(l6.ID, platform.MatchExact, 2.0)
	c.BidCreated(l6.ID, platform.MatchPhrase, 1.0)

	// Detections / shutdowns.
	shutdown(f0, 150, dataset.StageRateAnomaly)
	shutdown(f1, 400, dataset.StageManualReview)
	shutdown(f2, 20, dataset.StageBlacklist)
	shutdown(f3, 121, dataset.StageManualReview)
	shutdown(l9, 300, dataset.StageManualReview)

	return &fixture{p: p, c: c, s: NewStudy(p, c, horizonDays), win: win}
}

func TestLabelingFollowsDetectionRecords(t *testing.T) {
	f := newFixture(t)
	// Detected fraud accounts are labeled fraudulent.
	for _, id := range []platform.AccountID{0, 1, 2, 3, 4} {
		if !f.s.IsFraudulent(id) {
			t.Fatalf("account %d should be labeled fraudulent", id)
		}
	}
	// The evader (5) is labeled non-fraudulent despite ground truth.
	if f.s.IsFraudulent(5) {
		t.Fatal("undetected fraud must be labeled non-fraudulent (§3.2)")
	}
	// Friendly fire (9) is labeled fraudulent despite being legit.
	if !f.s.IsFraudulent(9) {
		t.Fatal("friendly-fire account must be labeled fraudulent (§3.2)")
	}
}

func TestAliveDuring(t *testing.T) {
	f := newFixture(t)
	fraud := f.s.AliveDuring(f.win.Window, true)
	// f0 (shutdown 150 > 100) and f1 (400) and f3 (registered 120) are
	// alive in window and fraud-labeled; f2 died day 20; f4 never active;
	// l9 friendly fire is "fraud" and alive through window.
	want := map[platform.AccountID]bool{0: true, 1: true, 3: true, 9: true}
	if len(fraud) != len(want) {
		t.Fatalf("fraud alive: %v", fraud)
	}
	for _, id := range fraud {
		if !want[id] {
			t.Fatalf("unexpected fraud-alive account %d", id)
		}
	}
	nf := f.s.AliveDuring(f.win.Window, false)
	wantNF := map[platform.AccountID]bool{5: true, 6: true, 7: true, 8: true}
	if len(nf) != len(wantNF) {
		t.Fatalf("nonfraud alive: %v", nf)
	}
}

func TestActiveDaysAndRates(t *testing.T) {
	f := newFixture(t)
	// f0: created day 90, shutdown 150.75 → active span in [100,190) is
	// [100, 150.75) = 50.75 days.
	days := f.s.ActiveDaysIn(0, f.win.Window)
	if days < 50.7 || days > 50.8 {
		t.Fatalf("active days %v, want 50.75", days)
	}
	// Clicks: 25 of the 100 impressions clicked.
	if got := f.s.WindowClicks(0, 0); got != 25 {
		t.Fatalf("window clicks %d", got)
	}
	rate := f.s.ClickRate(0, f.win.Window, 0)
	if rate < 25/50.8 || rate > 25/50.7 {
		t.Fatalf("click rate %v", rate)
	}
	ir := f.s.ImpressionRate(0, f.win.Window, 0)
	if ir < 100/50.8 || ir > 100/50.7 {
		t.Fatalf("impression rate %v", ir)
	}
	// Accounts with no span have zero rate.
	if f.s.ClickRate(4, f.win.Window, 0) != 0 {
		t.Fatal("rejected account has a rate")
	}
}

func TestLifetimes(t *testing.T) {
	f := newFixture(t)
	// Accounts detected in year 1 (days 0..360): f0 (150), f2 (20),
	// f3 (121), f4 (130), l9 (300). From creation.
	lts := f.s.Lifetimes(simclock.Year1, false)
	if len(lts) != 5 {
		t.Fatalf("year-1 lifetimes n=%d, want 5", len(lts))
	}
	// From first ad: only f0 posted ads among those (f2/f3/f4/l9 have no
	// FirstAdAt in the fixture).
	ad := f.s.Lifetimes(simclock.Year1, true)
	if len(ad) != 1 {
		t.Fatalf("year-1 ad lifetimes n=%d, want 1", len(ad))
	}
	want := simclock.StampAt(150, 0.75).DaysSince(simclock.StampAt(91, 0.5))
	if ad[0] != want {
		t.Fatalf("ad lifetime %v, want %v", ad[0], want)
	}
	// Year 2: f1 (day 400).
	if n := len(f.s.Lifetimes(simclock.Year2, false)); n != 1 {
		t.Fatalf("year-2 lifetimes n=%d", n)
	}
}

func TestPreAdShutdownShare(t *testing.T) {
	f := newFixture(t)
	// Of the 6 detected accounts (f0,f1,f2,f3,f4,l9), those without ads
	// before detection: f2, f3, f4, l9 → 4/6.
	got := f.s.PreAdShutdownShare()
	if got < 0.66 || got > 0.67 {
		t.Fatalf("pre-ad shutdown share %v, want 2/3", got)
	}
}

func TestRegistrationFraudShare(t *testing.T) {
	f := newFixture(t)
	months := f.s.RegistrationFraudShare()
	// Month 0 (days 0..29): f2(fraud-labeled), l6, l7, l9(labeled fraud)
	// → 4 regs, 2 labeled.
	if months[0].Registrations != 4 || months[0].Fraudulent != 2 {
		t.Fatalf("month 0: %+v", months[0])
	}
	// Month 3 (days 90..119): f0, f1, f5, l8 register; only f0 and f1 are
	// ever *labeled* fraudulent (f5 evades detection).
	var m3 *MonthShare
	for i := range months {
		if months[i].Month == 3 {
			m3 = &months[i]
		}
	}
	if m3 == nil || m3.Registrations != 4 || m3.Fraudulent != 2 {
		t.Fatalf("month 3: %+v", m3)
	}
}

func TestCompetitionExposure(t *testing.T) {
	f := newFixture(t)
	im, sp, ok := f.s.CompetitionExposure(0, 0)
	if !ok {
		t.Fatal("no exposure for active fraud account")
	}
	// 90 of 100 impressions influenced.
	if im != 0.9 {
		t.Fatalf("impression exposure %v", im)
	}
	if sp <= 0 || sp > 1 {
		t.Fatalf("spend exposure %v", sp)
	}
	if _, _, ok := f.s.CompetitionExposure(4, 0); ok {
		t.Fatal("exposure for inactive account")
	}
}

func TestEngagementSplits(t *testing.T) {
	f := newFixture(t)
	sub := Subset{Name: "x", IDs: []platform.AccountID{6, 7, 8}}
	ctr := f.s.CTRSplit(sub, 0)
	// Account 7 is in a clean vertical: excluded. 6 and 8 have organic
	// impressions; both have influenced impressions.
	if len(ctr.Organic) != 2 || len(ctr.Influenced) != 2 {
		t.Fatalf("CTR split sizes %d/%d", len(ctr.Organic), len(ctr.Influenced))
	}
	cpc := f.s.CPCSplit(sub, 0)
	if len(cpc.Organic) == 0 {
		t.Fatal("no organic CPC values")
	}
	for _, v := range cpc.Organic {
		if v <= 0 {
			t.Fatalf("CPC %v", v)
		}
	}
	norm := cpc.NormalizeBy(2.0)
	if norm.Organic[0] != cpc.Organic[0]/2 {
		t.Fatal("normalization wrong")
	}
}

func TestPositionDistributions(t *testing.T) {
	f := newFixture(t)
	sub := Subset{Name: "x", IDs: []platform.AccountID{6}}
	org, infl := f.s.PositionDistributions(sub, 0)
	var orgN, inflN int64
	for i := range org {
		orgN += org[i]
		inflN += infl[i]
	}
	if orgN != 190 || inflN != 10 {
		t.Fatalf("position totals organic=%d influenced=%d", orgN, inflN)
	}
	if TopPositionShare(org) <= 0 {
		t.Fatal("top position share")
	}
}

func TestMatchMixAndAvgBid(t *testing.T) {
	f := newFixture(t)
	mix := f.s.MatchMix(6)
	if mix[platform.MatchExact] != 2.0/3 || mix[platform.MatchPhrase] != 1.0/3 {
		t.Fatalf("mix %v", mix)
	}
	avg, ok := f.s.AvgBid(6, platform.MatchExact)
	if !ok || avg != 1.5 {
		t.Fatalf("avg exact bid %v %v", avg, ok)
	}
	if _, ok := f.s.AvgBid(6, platform.MatchBroad); ok {
		t.Fatal("avg bid for match type with no bids")
	}
	if mix := f.s.MatchMix(99); mix != [3]float64{} {
		t.Fatal("mix of unknown account")
	}
}

func TestWeeklyAttribution(t *testing.T) {
	f := newFixture(t)
	weeks := f.s.WeeklyAttribution(90)
	var in, out float64
	for _, w := range weeks {
		in += w.InSpend
		out += w.OutSpend
	}
	// f0's activity (detected day 150, activity days 100..179) is always
	// within 90 days of detection → in-window. f1's activity (days
	// 100..129, detected day 400) is 270+ days early → out-of-window.
	f0Spend := 25 * 2.0
	f1Spend := 10 * 5.0
	if in != f0Spend {
		t.Fatalf("in-window spend %v, want %v", in, f0Spend)
	}
	if out != f1Spend {
		t.Fatalf("out-of-window spend %v, want %v", out, f1Spend)
	}
}

func TestConcentration(t *testing.T) {
	f := newFixture(t)
	spend, clicks := f.s.Concentration(f.win.Window, 0, []float64{0.5, 1.0})
	if len(spend) != 2 || len(clicks) != 2 {
		t.Fatal("wrong point counts")
	}
	if spend[1].Y != 1.0 || clicks[1].Y != 1.0 {
		t.Fatal("cumulative share must reach 1")
	}
	if spend[0].Y <= 0.5 {
		t.Fatalf("top half of fraud should dominate spend: %v", spend[0].Y)
	}
	ss, cs := f.s.TopShare(f.win.Window, 0, 0.5)
	if ss != spend[0].Y || cs != clicks[0].Y {
		t.Fatal("TopShare and Concentration disagree")
	}
}

func TestClickGeographyAndMatchTables(t *testing.T) {
	f := newFixture(t)
	geo := f.s.ClickGeography()
	if len(geo) == 0 {
		t.Fatal("empty geography")
	}
	if geo[0].Country != market.US {
		t.Fatalf("top fraud country %s, want US", geo[0].Country)
	}
	var sum float64
	for _, r := range geo {
		sum += r.ShareOfFraud
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("fraud shares sum to %v", sum)
	}
	rows := f.s.MatchTypeClicks()
	if len(rows) != 3 {
		t.Fatal("match table rows")
	}
	var fSum, nfSum float64
	for _, r := range rows {
		fSum += r.ShareOfFraud
		nfSum += r.NonfraudShare
	}
	if fSum < 0.999 || fSum > 1.001 || nfSum < 0.999 || nfSum > 1.001 {
		t.Fatalf("match shares sum to %v / %v", fSum, nfSum)
	}
}

func TestCountryDistribution(t *testing.T) {
	f := newFixture(t)
	sub := Subset{Name: "x", IDs: []platform.AccountID{0, 1, 3, 9}}
	rows := f.s.CountryDistribution(sub)
	if rows[0].Country != market.US || rows[0].Share != 0.5 {
		t.Fatalf("top country %+v", rows[0])
	}
}

func TestVerticalMonthSpendThreshold(t *testing.T) {
	f := newFixture(t)
	all := f.s.VerticalMonthSpend(0)
	if len(all) == 0 {
		t.Fatal("no vertical spend")
	}
	// With an absurd threshold nothing passes.
	if got := f.s.VerticalMonthSpend(1e9); len(got) != 0 {
		t.Fatalf("threshold ignored: %v", got)
	}
	// f1 (techsupport) spent 50 in month 3 (days 100..129 → months 3,4).
	tsIdx := verticals.Index(verticals.TechSupport)
	total := 0.0
	for _, row := range all {
		total += row[tsIdx]
	}
	if total != 50 {
		t.Fatalf("techsupport spend %v, want 50", total)
	}
}

func TestBuildSubsets(t *testing.T) {
	f := newFixture(t)
	rng := stats.NewRNG(1)
	subs := f.s.BuildSubsets(f.win, 0, 3, rng)
	if subs.Fraud.Len() != 3 {
		t.Fatalf("fraud subset size %d", subs.Fraud.Len())
	}
	// Only f0 and f1 received clicks among fraud-labeled (l9 has no
	// activity, f3 none).
	if subs.FWithClicks.Len() != 2 {
		t.Fatalf("F-with-clicks size %d", subs.FWithClicks.Len())
	}
	// Weighted subsets never include zero-weight accounts.
	for _, id := range subs.FSpendWeight.IDs {
		if f.s.WindowSpend(id, 0) <= 0 {
			t.Fatalf("zero-spend account %d in spend-weighted subset", id)
		}
	}
	// Matched subsets draw only non-fraud accounts.
	for _, sub := range []Subset{subs.NFSpendMatch, subs.NFVolumeMatch, subs.NFRateMatch} {
		if sub.Len() == 0 {
			t.Fatalf("matched subset %s empty", sub.Name)
		}
		for _, id := range sub.IDs {
			if f.s.IsFraudulent(id) {
				t.Fatalf("fraud account %d in %s", id, sub.Name)
			}
		}
	}
	// Determinism.
	subs2 := f.s.BuildSubsets(f.win, 0, 3, stats.NewRNG(1))
	if len(subs2.Fraud.IDs) != len(subs.Fraud.IDs) {
		t.Fatal("subset construction not deterministic")
	}
	for i := range subs.Fraud.IDs {
		if subs.Fraud.IDs[i] != subs2.Fraud.IDs[i] {
			t.Fatal("subset construction not deterministic")
		}
	}
}

func TestSubsetECDFAndValues(t *testing.T) {
	f := newFixture(t)
	sub := Subset{Name: "x", IDs: []platform.AccountID{0, 1}}
	vals := sub.Values(func(id platform.AccountID) float64 { return f.s.WindowSpend(id, 0) })
	if len(vals) != 2 {
		t.Fatal("values length")
	}
	e := sub.ECDF(func(id platform.AccountID) float64 { return f.s.WindowSpend(id, 0) })
	if e.N() != 2 {
		t.Fatal("ECDF size")
	}
}
