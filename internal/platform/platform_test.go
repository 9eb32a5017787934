package platform

import (
	"testing"

	"repro/internal/adcopy"
	"repro/internal/market"
	"repro/internal/simclock"
	"repro/internal/verticals"
)

func newAccount(t *testing.T, p *Platform, fraud bool) *Account {
	t.Helper()
	a := p.Register(RegistrationRequest{
		At:              simclock.StampAt(0, 0.1),
		Country:         market.US,
		Fraud:           fraud,
		PrimaryVertical: verticals.Downloads,
		StolenPayment:   fraud,
	})
	return a
}

func approve(t *testing.T, p *Platform, id AccountID) {
	t.Helper()
	if err := p.Approve(id); err != nil {
		t.Fatal(err)
	}
}

func addAd(t *testing.T, p *Platform, id AccountID, quality float64) *Ad {
	t.Helper()
	ad, err := p.CreateAd(id, verticals.Downloads, market.US,
		adcopy.Creative{DisplayURL: "www.x.com"}, quality, simclock.StampAt(1, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	return ad
}

func TestAccountLifecycle(t *testing.T) {
	p := New()
	a := newAccount(t, p, false)
	if a.Status != StatusRegistered || a.Alive() {
		t.Fatal("fresh account must be registered, not alive")
	}
	approve(t, p, a.ID)
	if !a.Alive() {
		t.Fatal("approved account must be alive")
	}
	if err := p.Shutdown(a.ID, simclock.StampAt(3, 0), "test"); err != nil {
		t.Fatal(err)
	}
	if a.Alive() || a.Status != StatusShutdown {
		t.Fatal("shutdown account still alive")
	}
}

func TestLifecycleTransitionsRejectInvalid(t *testing.T) {
	p := New()
	a := newAccount(t, p, true)
	// Cannot shut down a registered (unapproved) account.
	if err := p.Shutdown(a.ID, 0, "x"); err == nil {
		t.Fatal("shutdown of registered account succeeded")
	}
	approve(t, p, a.ID)
	if err := p.Approve(a.ID); err == nil {
		t.Fatal("double approve succeeded")
	}
	if err := p.Reject(a.ID, 0, "x"); err == nil {
		t.Fatal("reject of active account succeeded")
	}
	if err := p.Shutdown(a.ID, simclock.StampAt(1, 0), "x"); err != nil {
		t.Fatal(err)
	}
	if err := p.Shutdown(a.ID, simclock.StampAt(2, 0), "x"); err == nil {
		t.Fatal("double shutdown succeeded")
	}
}

func TestRejectBeforeApproval(t *testing.T) {
	p := New()
	a := newAccount(t, p, true)
	if err := p.Reject(a.ID, simclock.StampAt(0, 0.2), "screening"); err != nil {
		t.Fatal(err)
	}
	if a.Status != StatusRejected {
		t.Fatal("status not rejected")
	}
	if _, err := p.CreateAd(a.ID, verticals.Downloads, market.US, adcopy.Creative{}, 0.5, 0); err == nil {
		t.Fatal("rejected account created an ad")
	}
}

func TestCreateAdRequiresActiveAndValidQuality(t *testing.T) {
	p := New()
	a := newAccount(t, p, false)
	if _, err := p.CreateAd(a.ID, verticals.Downloads, market.US, adcopy.Creative{}, 0.5, 0); err == nil {
		t.Fatal("unapproved account created an ad")
	}
	approve(t, p, a.ID)
	for _, q := range []float64{0, -1, 1.5} {
		if _, err := p.CreateAd(a.ID, verticals.Downloads, market.US, adcopy.Creative{}, q, 0); err == nil {
			t.Fatalf("quality %v accepted", q)
		}
	}
}

func TestFirstAdStamp(t *testing.T) {
	p := New()
	a := newAccount(t, p, false)
	approve(t, p, a.ID)
	if a.FirstAdAt != NoStamp {
		t.Fatal("FirstAdAt set before any ad")
	}
	addAd(t, p, a.ID, 0.5)
	first := a.FirstAdAt
	if first == NoStamp {
		t.Fatal("FirstAdAt not set")
	}
	addAd(t, p, a.ID, 0.5)
	if a.FirstAdAt != first {
		t.Fatal("FirstAdAt moved on second ad")
	}
	if a.AdsCreated != 2 {
		t.Fatalf("AdsCreated = %d", a.AdsCreated)
	}
}

func TestAddBidValidationAndIndexing(t *testing.T) {
	p := New()
	a := newAccount(t, p, false)
	approve(t, p, a.ID)
	ad := addAd(t, p, a.ID, 0.5)
	if err := p.AddBid(ad, KeywordBid{KeywordID: 1, Cluster: 0, Match: MatchExact, MaxBid: 0}, 0); err == nil {
		t.Fatal("zero bid accepted")
	}
	if err := p.AddBid(ad, KeywordBid{KeywordID: 1, Cluster: 0, Match: MatchExact, MaxBid: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if p.Index().Len() != 1 {
		t.Fatalf("index len %d", p.Index().Len())
	}
	if a.KeywordsCreated != 1 {
		t.Fatalf("KeywordsCreated = %d", a.KeywordsCreated)
	}
}

func TestShutdownRemovesFromIndexAndFreesBids(t *testing.T) {
	p := New()
	a := newAccount(t, p, true)
	approve(t, p, a.ID)
	ad := addAd(t, p, a.ID, 0.5)
	for i := 0; i < 5; i++ {
		if err := p.AddBid(ad, KeywordBid{KeywordID: i, Cluster: 0, Match: MatchPhrase, MaxBid: 1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if p.LiveAds() != 1 {
		t.Fatalf("liveAds %d", p.LiveAds())
	}
	if err := p.Shutdown(a.ID, simclock.StampAt(2, 0), "x"); err != nil {
		t.Fatal(err)
	}
	if p.Index().Len() != 0 {
		t.Fatalf("index not empty after shutdown: %d", p.Index().Len())
	}
	if p.LiveAds() != 0 {
		t.Fatalf("liveAds %d after shutdown", p.LiveAds())
	}
	if ad.Bids != nil {
		t.Fatal("bids not freed")
	}
}

func TestRetireAdReleasesEverything(t *testing.T) {
	p := New()
	a := newAccount(t, p, false)
	approve(t, p, a.ID)
	ad1 := addAd(t, p, a.ID, 0.5)
	ad2 := addAd(t, p, a.ID, 0.5)
	if err := p.AddBid(ad1, KeywordBid{KeywordID: 0, Cluster: 0, Match: MatchBroad, MaxBid: 1}, 0); err != nil {
		t.Fatal(err)
	}
	p.RetireAd(ad1)
	if ad1.Active || ad1.Bids != nil {
		t.Fatal("retired ad still active or holding bids")
	}
	if len(a.Ads) != 1 || a.Ads[0] != ad2 {
		t.Fatalf("account ad list wrong after retire: %d ads", len(a.Ads))
	}
	if p.Index().Len() != 0 {
		t.Fatal("index entry leaked")
	}
	if p.LiveAds() != 1 {
		t.Fatalf("liveAds %d", p.LiveAds())
	}
}

func TestBillingAndLedger(t *testing.T) {
	p := New()
	honest := newAccount(t, p, false)
	thief := newAccount(t, p, true)
	approve(t, p, honest.ID)
	approve(t, p, thief.ID)
	p.Bill(honest.ID, 2.5)
	p.Bill(thief.ID, 4.0)
	p.Bill(thief.ID, 1.0)
	l := p.Ledger()
	if honest.Uncollected() != 0 {
		t.Fatal("honest account has uncollected charges")
	}
	if thief.Uncollected() != 5.0 {
		t.Fatal("stolen-instrument charges not tracked")
	}
	if l.TotalBilled() != 7.5 || l.TotalLost() != 5.0 {
		t.Fatalf("totals billed=%v lost=%v", l.TotalBilled(), l.TotalLost())
	}
	if honest.Clicks != 1 || thief.Clicks != 2 || thief.Spend != 5.0 {
		t.Fatal("account counters wrong")
	}
}

func TestLifetimeMeasures(t *testing.T) {
	p := New()
	a := newAccount(t, p, true)
	approve(t, p, a.ID)
	addAd(t, p, a.ID, 0.5) // at day 1.5
	if err := p.Shutdown(a.ID, simclock.StampAt(2, 0.5), "x"); err != nil {
		t.Fatal(err)
	}
	now := simclock.StampAt(100, 0)
	if lt := a.LifetimeFromCreation(now); lt != 2.4 {
		t.Fatalf("lifetime from creation %v, want 2.4", lt)
	}
}

func TestAccountLookupErrors(t *testing.T) {
	p := New()
	if _, err := p.Account(0); err == nil {
		t.Fatal("lookup in empty platform succeeded")
	}
	if _, err := p.Account(-1); err == nil {
		t.Fatal("negative ID lookup succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustAccount did not panic")
		}
	}()
	p.MustAccount(5)
}

func TestMatchTypeStrings(t *testing.T) {
	if MatchExact.String() != "exact" || MatchPhrase.String() != "phrase" || MatchBroad.String() != "broad" {
		t.Fatal("match type names")
	}
	if StatusActive.String() != "active" || StatusRejected.String() != "rejected" {
		t.Fatal("status names")
	}
}

func TestModifyCounters(t *testing.T) {
	p := New()
	a := newAccount(t, p, false)
	approve(t, p, a.ID)
	ad := addAd(t, p, a.ID, 0.5)
	if err := p.AddBid(ad, KeywordBid{KeywordID: 0, Cluster: 0, Match: MatchExact, MaxBid: 1}, 0); err != nil {
		t.Fatal(err)
	}
	p.ModifyAd(ad, ad.Creative)
	p.ModifyBid(ad, ad.Bids[0], 2.0)
	if a.AdsModified != 1 || a.KeywordsModified != 1 {
		t.Fatal("modify counters")
	}
	if ad.Bids[0].MaxBid != 2.0 {
		t.Fatal("bid not updated")
	}
	p.ModifyBid(ad, ad.Bids[0], -5) // invalid new bid: counter still ticks, bid unchanged
	if ad.Bids[0].MaxBid != 2.0 || a.KeywordsModified != 2 {
		t.Fatal("invalid bid modification handling")
	}
}

func TestCloseAccount(t *testing.T) {
	p := New()
	a := newAccount(t, p, false)
	approve(t, p, a.ID)
	ad := addAd(t, p, a.ID, 0.5)
	if err := p.AddBid(ad, KeywordBid{KeywordID: 0, Cluster: 0, Match: MatchExact, MaxBid: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(a.ID, simclock.StampAt(9, 0.5)); err != nil {
		t.Fatal(err)
	}
	if a.Status != StatusClosed || a.Alive() {
		t.Fatal("close did not terminate the account")
	}
	if a.ShutdownAt != simclock.StampAt(9, 0.5) {
		t.Fatal("end-of-life stamp not recorded")
	}
	if p.Index().Len() != 0 || p.LiveAds() != 0 {
		t.Fatal("serving state leaked after close")
	}
	// Closed is terminal.
	if err := p.Close(a.ID, simclock.StampAt(10, 0)); err == nil {
		t.Fatal("double close succeeded")
	}
	if err := p.Shutdown(a.ID, simclock.StampAt(10, 0), "x"); err == nil {
		t.Fatal("shutdown of closed account succeeded")
	}
}

func TestCloseRequiresActive(t *testing.T) {
	p := New()
	a := newAccount(t, p, false)
	if err := p.Close(a.ID, 0); err == nil {
		t.Fatal("closed a registered (unapproved) account")
	}
}
