package agents

import (
	"slices"
	"testing"

	"repro/internal/adcopy"
	"repro/internal/dataset"
	"repro/internal/platform"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/verticals"
)

func TestLegitProfileInvariants(t *testing.T) {
	f := NewFactory(stats.NewRNG(1))
	for i := 0; i < 2000; i++ {
		p := f.NewLegit()
		if p.Fraud || p.Class != ClassLegit {
			t.Fatal("legit profile marked fraud")
		}
		if verticals.Index(p.Vertical) != p.VerticalIdx {
			t.Fatal("vertical index mismatch")
		}
		if p.PortfolioSize < 1 || p.KeywordsPerAd < 1 {
			t.Fatal("empty portfolio plan")
		}
		checkMix(t, p.MatchMix)
		if p.StolenPayment || p.Evasion != 0 {
			t.Fatal("legit profile with fraud attributes")
		}
		if p.Quality <= 0 || p.Quality > 1 {
			t.Fatalf("quality %v", p.Quality)
		}
		if p.PocketSpan != 0 {
			t.Fatal("legit profile restricted to a keyword pocket")
		}
	}
}

func TestFraudProfileInvariants(t *testing.T) {
	f := NewFactory(stats.NewRNG(2))
	prolific := 0
	stolen := 0
	noExact := 0
	const n = 3000
	for i := 0; i < n; i++ {
		p := f.NewFraud()
		if !p.Fraud {
			t.Fatal("fraud profile not marked")
		}
		if !verticals.IsDubious(p.Vertical) {
			t.Fatalf("fraud in clean vertical %s", p.Vertical)
		}
		checkMix(t, p.MatchMix)
		if p.Class == ClassFraudProlific {
			prolific++
		}
		if p.StolenPayment {
			stolen++
		}
		if p.MatchMix[platform.MatchExact] == 0 {
			noExact++
		}
		if p.PocketSpan <= 0 {
			t.Fatal("fraud profile without a keyword pocket")
		}
	}
	if prolific < n/30 || prolific > n/5 {
		t.Fatalf("prolific share %d/%d outside expectations", prolific, n)
	}
	// "60% of fraudulent advertisers do not have even a single exact bid"
	// (§5.3) — the mix parameter should put roughly 2/3 at zero exact.
	if share := float64(noExact) / n; share < 0.55 || share > 0.75 {
		t.Fatalf("zero-exact share %v", share)
	}
	if float64(stolen)/n < 0.5 {
		t.Fatalf("stolen-payment share too low: %d/%d", stolen, n)
	}
}

func checkMix(t *testing.T, mix [3]float64) {
	t.Helper()
	sum := 0.0
	for _, m := range mix {
		if m < 0 || m > 1 {
			t.Fatalf("mix component %v", m)
		}
		sum += m
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("mix sums to %v", sum)
	}
}

func TestFraudSmallerThanLegit(t *testing.T) {
	f := NewFactory(stats.NewRNG(3))
	var fAds, lAds, fKw, lKw float64
	const n = 2000
	for i := 0; i < n; i++ {
		fp := f.NewFraud()
		lp := f.NewLegit()
		fAds += float64(fp.PortfolioSize)
		lAds += float64(lp.PortfolioSize)
		fKw += float64(fp.PortfolioSize * fp.KeywordsPerAd)
		lKw += float64(lp.PortfolioSize * lp.KeywordsPerAd)
	}
	if fAds*3 > lAds {
		t.Fatalf("fraud portfolios not much smaller: %v vs %v", fAds/n, lAds/n)
	}
	if fKw*3 > lKw {
		t.Fatalf("fraud keyword sets not much smaller: %v vs %v", fKw/n, lKw/n)
	}
}

func TestTechSupportBanShiftsArrivals(t *testing.T) {
	count := func(banned bool, seed uint64) int {
		f := NewFactory(stats.NewRNG(seed))
		f.SetTechSupportBanned(banned)
		n := 0
		for i := 0; i < 3000; i++ {
			if f.NewFraud().Vertical == verticals.TechSupport {
				n++
			}
		}
		return n
	}
	before := count(false, 4)
	after := count(true, 4)
	if before < 300 {
		t.Fatalf("techsupport not a boom vertical pre-ban: %d/3000", before)
	}
	if after*10 > before {
		t.Fatalf("ban did not suppress techsupport arrivals: %d -> %d", before, after)
	}
}

// testWorld wires a runtime over a fresh platform for agent behavior tests.
func testWorld(t *testing.T, seed uint64) (*platform.Platform, *dataset.Collector, *Runtime, *Factory) {
	t.Helper()
	p := platform.New()
	col := dataset.NewCollector([]simclock.NamedWindow{{Name: "w", Window: simclock.Window{Start: 0, End: 1000}}}, simclock.Window{Start: 0, End: 1000})
	universes := make(map[int]*adcopy.Universe)
	uni := func(vi int) *adcopy.Universe {
		if u, ok := universes[vi]; ok {
			return u
		}
		u := adcopy.BuildUniverse(verticals.All()[vi])
		universes[vi] = u
		return u
	}
	rng := stats.NewRNG(seed)
	rt := NewRuntime(p, dataset.NewReplayer(col), uni, rng.ForkNamed("rt"))
	return p, col, rt, NewFactory(rng.ForkNamed("factory"))
}

func spawnActive(t *testing.T, p *platform.Platform, rt *Runtime, prof Profile) *Agent {
	t.Helper()
	acct := p.Register(platform.RegistrationRequest{
		At: simclock.StampAt(0, 0), Country: prof.Country, Fraud: prof.Fraud,
		PrimaryVertical: prof.Vertical, StolenPayment: prof.StolenPayment,
	})
	if err := p.Approve(acct.ID); err != nil {
		t.Fatal(err)
	}
	return rt.Spawn(prof, acct.ID, simclock.StampAt(0, 0))
}

// step runs one agent's day and returns the number of ads it created.
func step(rt *Runtime, a *Agent, day simclock.Day) int {
	acct := rt.p.MustAccount(a.Account)
	before := acct.AdsCreated
	rt.Step(a, day)
	return acct.AdsCreated - before
}

func TestAgentBuildsPortfolio(t *testing.T) {
	p, col, rt, f := testWorld(t, 5)
	prof := f.NewLegit()
	prof.PortfolioSize = 10
	prof.BuildPerDay = 3
	prof.ChurnRate = 0 // deterministic creation count
	prof.MaintainRate = 0
	a := spawnActive(t, p, rt, prof)
	for day := simclock.Day(0); day < 30; day++ {
		step(rt, a, day)
	}
	acct := p.MustAccount(a.Account)
	if len(acct.Ads) != 10 {
		t.Fatalf("portfolio %d, want 10", len(acct.Ads))
	}
	for _, ad := range acct.Ads {
		if len(ad.Bids) == 0 || len(ad.Bids) > prof.KeywordsPerAd {
			t.Fatalf("ad has %d bids, want 1..%d", len(ad.Bids), prof.KeywordsPerAd)
		}
		if ad.Vertical != prof.Vertical || ad.Target != prof.Target {
			t.Fatal("ad mis-targeted")
		}
	}
	agg := col.Agg(a.Account)
	if agg == nil || agg.Windows[0] == nil || agg.Windows[0].AdsCreated != 10 {
		t.Fatal("campaign actions not collected")
	}
	var bids int64
	for _, n := range agg.BidCount {
		bids += n
	}
	if bids == 0 {
		t.Fatal("no bid-created events collected")
	}
}

func TestAgentRespectsStartDay(t *testing.T) {
	p, _, rt, f := testWorld(t, 6)
	prof := f.NewLegit()
	a := spawnActive(t, p, rt, prof)
	if step(rt, a, a.StartDay-1) != 0 {
		t.Fatal("agent acted before its start day")
	}
	if len(p.MustAccount(a.Account).Ads) != 0 {
		t.Fatal("ads created before start day")
	}
}

func TestAgentStopsWhenShutdown(t *testing.T) {
	p, _, rt, f := testWorld(t, 7)
	prof := f.NewFraud()
	a := spawnActive(t, p, rt, prof)
	for day := a.StartDay; day < a.StartDay+3; day++ {
		step(rt, a, day)
	}
	if err := p.Shutdown(a.Account, simclock.StampAt(a.StartDay+3, 0), "x"); err != nil {
		t.Fatal(err)
	}
	if step(rt, a, a.StartDay+4) != 0 {
		t.Fatal("dead agent still creating ads")
	}
}

// TestStepReadsOnlyOwnAccount pins the independence paired counterfactual
// runs rest on: an agent draws from its own stream and reads its own
// account, so stepping the same agents in the opposite order changes no
// account. (FullCreatives stays off: its ad copy is one shared stream.)
func TestStepReadsOnlyOwnAccount(t *testing.T) {
	const agentsN, days = 12, 40
	run := func(reverse bool) *platform.Platform {
		p, _, rt, f := testWorld(t, 17)
		var as []*Agent
		for i := 0; i < agentsN; i++ {
			prof := f.NewLegit()
			if i%2 == 1 {
				prof = f.NewFraud()
			}
			prof.ChurnRate, prof.MaintainRate = 0.5, 0.7
			as = append(as, spawnActive(t, p, rt, prof))
		}
		if reverse {
			slices.Reverse(as)
		}
		for day := simclock.Day(0); day < days; day++ {
			for _, a := range as {
				rt.Step(a, day)
			}
		}
		return p
	}
	fwd, rev := run(false), run(true)
	for id := platform.AccountID(0); id < agentsN; id++ {
		x, y := fwd.MustAccount(id), rev.MustAccount(id)
		if x.AdsCreated == 0 || x.AdsCreated != y.AdsCreated || x.AdsModified != y.AdsModified ||
			x.KeywordsCreated != y.KeywordsCreated || x.KeywordsModified != y.KeywordsModified ||
			x.FirstAdAt != y.FirstAdAt || len(x.Ads) != len(y.Ads) {
			t.Fatalf("account %d: counters differ with step order: %+v vs %+v", id, x, y)
		}
		for i, ad := range x.Ads {
			other := y.Ads[i]
			if ad.Quality != other.Quality || ad.Created != other.Created || len(ad.Bids) != len(other.Bids) {
				t.Fatalf("account %d slot %d: ad differs with step order", id, i)
			}
			for j, b := range ad.Bids {
				if *b != *other.Bids[j] {
					t.Fatalf("account %d slot %d bid %d: %+v vs %+v", id, i, j, *b, *other.Bids[j])
				}
			}
		}
	}
}

func TestFraudBuildsFast(t *testing.T) {
	p, _, rt, f := testWorld(t, 8)
	prof := f.NewFraud()
	prof.PortfolioSize = 5
	a := spawnActive(t, p, rt, prof)
	step(rt, a, a.StartDay)
	if got := len(p.MustAccount(a.Account).Ads); got != 5 {
		t.Fatalf("fraud built %d ads on day one, want full portfolio 5", got)
	}
}

func TestExactBidsOnHeadKeywords(t *testing.T) {
	p, _, rt, f := testWorld(t, 9)
	prof := f.NewLegit()
	prof.MatchMix = [3]float64{0.4, 0.3, 0.3}
	prof.PortfolioSize = 40
	prof.BuildPerDay = 40
	prof.KeywordsPerAd = 10
	a := spawnActive(t, p, rt, prof)
	step(rt, a, a.StartDay)
	var exactSum, exactN, broadSum, broadN float64
	for _, ad := range p.MustAccount(a.Account).Ads {
		for _, b := range ad.Bids {
			switch b.Match {
			case platform.MatchExact:
				exactSum += float64(b.KeywordID)
				exactN++
			case platform.MatchBroad:
				broadSum += float64(b.KeywordID)
				broadN++
			}
		}
	}
	if exactN == 0 || broadN == 0 {
		t.Skip("mix did not produce both types")
	}
	if exactSum/exactN >= broadSum/broadN {
		t.Fatalf("exact bids not on header keywords: exact mean rank %.1f, broad %.1f",
			exactSum/exactN, broadSum/broadN)
	}
}

func TestSpawnDomains(t *testing.T) {
	p, _, rt, f := testWorld(t, 10)
	prof := f.NewFraud()
	prof.NumDomains = 4
	a := spawnActive(t, p, rt, prof)
	if len(a.domains) != 4 {
		t.Fatalf("domains %d, want 4", len(a.domains))
	}
}

func TestFraudFirstAdDelayShorter(t *testing.T) {
	p, _, rt, f := testWorld(t, 11)
	var fraudSum, legitSum float64
	const n = 300
	for i := 0; i < n; i++ {
		fa := spawnActive(t, p, rt, f.NewFraud())
		la := spawnActive(t, p, rt, f.NewLegit())
		fraudSum += float64(fa.StartDay)
		legitSum += float64(la.StartDay)
	}
	if fraudSum >= legitSum {
		t.Fatalf("fraud does not post faster: %v vs %v", fraudSum/n, legitSum/n)
	}
}

func TestRecidivateProfile(t *testing.T) {
	f := NewFactory(stats.NewRNG(20))
	prev := f.NewFraud()
	next := f.Recidivate(prev)
	if next.Generation != prev.Generation+1 {
		t.Fatalf("generation %d -> %d", prev.Generation, next.Generation)
	}
	if next.Vertical != prev.Vertical || next.Class != prev.Class {
		t.Fatal("recidivist changed business without a ban")
	}
	if next.Evasion < prev.Evasion {
		t.Fatal("recidivist did not increase evasion")
	}
}

func TestRecidivatePivotsOutOfBannedVertical(t *testing.T) {
	f := NewFactory(stats.NewRNG(21))
	var ts Profile
	for i := 0; i < 5000; i++ {
		if p := f.NewFraud(); p.Vertical == verticals.TechSupport {
			ts = p
			break
		}
	}
	if ts.Vertical != verticals.TechSupport {
		t.Fatal("no techsupport profile sampled")
	}
	f.SetTechSupportBanned(true)
	pivots := 0
	for i := 0; i < 50; i++ {
		next := f.Recidivate(ts)
		if next.Generation != ts.Generation+1 {
			t.Fatal("pivot lost generation count")
		}
		if next.Vertical != verticals.TechSupport {
			pivots++
		}
	}
	if pivots < 45 {
		t.Fatalf("only %d/50 recidivists left the banned vertical", pivots)
	}
}
