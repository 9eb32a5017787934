package platform

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/adcopy"
	"repro/internal/market"
	"repro/internal/simclock"
	"repro/internal/verticals"
)

// indexFixture builds a platform with one account and one ad carrying an
// exact, a phrase and a broad bid on keyword 3 (cluster 1).
func indexFixture(t *testing.T) (*Platform, *Account) {
	t.Helper()
	p := New()
	a := p.Register(RegistrationRequest{Country: market.US, PrimaryVertical: verticals.Games})
	if err := p.Approve(a.ID); err != nil {
		t.Fatal(err)
	}
	ad, err := p.CreateAd(a.ID, verticals.Games, market.US, adcopy.Creative{}, 0.5, simclock.StampAt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range MatchTypes {
		if err := p.AddBid(ad, KeywordBid{KeywordID: 3, Cluster: 1, Match: m, MaxBid: 1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	return p, a
}

// allLive is a liveness stamp that filters nothing: every account of p
// reads live.
func allLive(p *Platform) []bool {
	live := make([]bool, p.NumAccounts())
	for i := range live {
		live[i] = true
	}
	return live
}

// eligible is the serving lookup: resolve the (vertical, market) sublists,
// then scan them against a liveness stamp.
func eligible(x *Index, v verticals.Vertical, c market.Country, kw, cl int, form QueryForm, live []bool) []BidRef {
	return x.Sublists(v, c).EligibleAppendLive(nil, kw, cl, form, live)
}

func TestMatchesSemantics(t *testing.T) {
	// Exact: same keyword, bare form only.
	if !Matches(MatchExact, 3, 3, true, FormBare) {
		t.Fatal("exact/bare")
	}
	if Matches(MatchExact, 3, 3, true, FormExtended) {
		t.Fatal("exact must reject extended form")
	}
	if Matches(MatchExact, 3, 4, true, FormBare) {
		t.Fatal("exact must reject other keywords")
	}
	// Phrase: same keyword, bare or extended.
	if !Matches(MatchPhrase, 3, 3, true, FormExtended) {
		t.Fatal("phrase/extended")
	}
	if Matches(MatchPhrase, 3, 3, true, FormReordered) {
		t.Fatal("phrase must reject reordered form")
	}
	// Broad: any same-cluster keyword, any form.
	if !Matches(MatchBroad, 3, 99, true, FormReordered) {
		t.Fatal("broad/same-cluster")
	}
	if Matches(MatchBroad, 3, 99, false, FormBare) {
		t.Fatal("broad must reject other clusters")
	}
}

func TestMatchesHierarchyProperty(t *testing.T) {
	// Whenever exact matches, phrase must match; whenever phrase matches
	// (same cluster), broad must match.
	f := func(bidKw, queryKw uint8, form8 uint8) bool {
		form := QueryForm(form8 % 3)
		same := bidKw/8 == queryKw/8 // synthetic cluster
		e := Matches(MatchExact, int(bidKw), int(queryKw), same, form)
		ph := Matches(MatchPhrase, int(bidKw), int(queryKw), same, form)
		br := Matches(MatchBroad, int(bidKw), int(queryKw), same, form)
		if e && !ph {
			return false
		}
		if bidKw == queryKw && !same {
			return true // impossible cluster assignment; skip
		}
		if ph && !br {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEligibleByForm(t *testing.T) {
	p, _ := indexFixture(t)
	for _, tc := range []struct {
		name   string
		kw, cl int
		form   QueryForm
		want   int
	}{
		{"bare: exact + phrase + broad", 3, 1, FormBare, 3},
		{"extended: phrase + broad", 3, 1, FormExtended, 2},
		{"reordered: broad only", 3, 1, FormReordered, 1},
		{"same-cluster other keyword: broad only", 7, 1, FormBare, 1},
		{"other cluster: nothing", 9, 2, FormBare, 0},
	} {
		if got := eligible(p.Index(), verticals.Games, market.US, tc.kw, tc.cl, tc.form, allLive(p)); len(got) != tc.want {
			t.Errorf("%s: %d eligible, want %d", tc.name, len(got), tc.want)
		}
	}
}

// TestEligibleAppendLiveAgreesWithMatches checks the posting-list scan
// against the §5.3 reference predicate, one bid at a time: for every
// match type, query form, keyword relation and liveness of the bidding
// account, the bid is returned exactly when the account is live and
// Matches accepts it.
func TestEligibleAppendLiveAgreesWithMatches(t *testing.T) {
	const bidKw, bidCl = 3, 1
	queries := []struct {
		name   string
		kw, cl int
	}{
		{"same keyword", bidKw, bidCl},
		{"other keyword, same cluster", 7, bidCl},
		{"other keyword, other cluster", 9, 2},
	}
	for _, m := range MatchTypes {
		p := New()
		a := p.Register(RegistrationRequest{Country: market.US, PrimaryVertical: verticals.Games})
		if err := p.Approve(a.ID); err != nil {
			t.Fatal(err)
		}
		ad, err := p.CreateAd(a.ID, verticals.Games, market.US, adcopy.Creative{}, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.AddBid(ad, KeywordBid{KeywordID: bidKw, Cluster: bidCl, Match: m, MaxBid: 1}, 0); err != nil {
			t.Fatal(err)
		}
		for _, form := range []QueryForm{FormBare, FormExtended, FormReordered} {
			for _, q := range queries {
				for _, live := range []bool{true, false} {
					want := live && Matches(m, bidKw, q.kw, q.cl == bidCl, form)
					got := eligible(p.Index(), verticals.Games, market.US, q.kw, q.cl, form, []bool{live})
					if (len(got) == 1) != want || len(got) > 1 {
						t.Errorf("%s bid, %s query, %s, live=%v: %d eligible, Matches says %v",
							m, form, q.name, live, len(got), want)
					}
					if len(got) == 1 && (got[0].Ad != ad || got[0].Bid != ad.Bids[0]) {
						t.Errorf("%s bid, %s query, %s: returned a different (ad, bid)", m, form, q.name)
					}
				}
			}
		}
	}
}

func TestEligibleFiltersMarketAndVertical(t *testing.T) {
	p, _ := indexFixture(t)
	for _, tc := range []struct {
		name string
		v    verticals.Vertical
		c    market.Country
	}{
		{"wrong market", verticals.Games, market.DE},
		{"wrong vertical", verticals.Luxury, market.US},
	} {
		if got := eligible(p.Index(), tc.v, tc.c, 3, 1, FormBare, allLive(p)); len(got) != 0 {
			t.Errorf("%s matched", tc.name)
		}
	}
}

func TestEligibleFiltersDeadAccounts(t *testing.T) {
	p, a := indexFixture(t)
	x := p.Index()
	// The stamp alone decides: the account is still active on the platform.
	if got := eligible(x, verticals.Games, market.US, 3, 1, FormBare, make([]bool, p.NumAccounts())); len(got) != 0 {
		t.Fatal("dead account served")
	}
	// Shutdown removes entries outright.
	if err := p.Shutdown(a.ID, simclock.StampAt(1, 0), "x"); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 0 {
		t.Fatalf("index len %d after shutdown", x.Len())
	}
}

func TestEligibleAppendReusesBuffer(t *testing.T) {
	p, _ := indexFixture(t)
	buf := make([]BidRef, 0, 16)
	got := p.Index().Sublists(verticals.Games, market.US).EligibleAppendLive(buf, 3, 1, FormBare, allLive(p))
	if len(got) != 3 || cap(got) != 16 {
		t.Fatalf("append variant: len=%d cap=%d", len(got), cap(got))
	}
}

func TestRemoveAdIsolation(t *testing.T) {
	// Removing one ad's bids must not disturb another ad's entries on the
	// same posting lists.
	p := New()
	a := p.Register(RegistrationRequest{Country: market.US, PrimaryVertical: verticals.Games})
	if err := p.Approve(a.ID); err != nil {
		t.Fatal(err)
	}
	ad1, _ := p.CreateAd(a.ID, verticals.Games, market.US, adcopy.Creative{}, 0.5, 0)
	ad2, _ := p.CreateAd(a.ID, verticals.Games, market.US, adcopy.Creative{}, 0.5, 0)
	for _, ad := range []*Ad{ad1, ad2} {
		if err := p.AddBid(ad, KeywordBid{KeywordID: 0, Cluster: 0, Match: MatchExact, MaxBid: 1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	p.RetireAd(ad1)
	got := eligible(p.Index(), verticals.Games, market.US, 0, 0, FormBare, allLive(p))
	if len(got) != 1 || got[0].Ad != ad2 {
		t.Fatalf("wrong survivor: %d refs", len(got))
	}
}

// TestFindEntryMatchesFullScan: on posting lists left out of order by
// in-place bid edits (UpdateBid rewrites a slot's score without moving
// it), the outward search from the binary-search probe finds the slot a
// scan of the whole list finds, and -1 for a bid the list does not hold.
func TestFindEntryMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 0))
	for trial := 0; trial < 300; trial++ {
		// Insert with AddBid's rule, from a few score levels so that
		// equal-score runs occur.
		var list []entry
		for n := 1 + rng.IntN(120); len(list) < n; {
			s := float64(1+rng.IntN(8)) * 0.25
			i := sort.Search(len(list), func(i int) bool { return list[i].score < s })
			list = slices.Insert(list, i, entry{bid: &KeywordBid{}, score: s})
		}
		// Edit about a fifth of the slots by up to ±20 %.
		for range len(list) / 5 {
			e := &list[rng.IntN(len(list))]
			e.score *= 0.8 + 0.4*rng.Float64()
		}
		for i, e := range list {
			if got := findEntry(list, e.bid, e.score); got != i {
				t.Fatalf("trial %d: findEntry of slot %d of %d = %d", trial, i, len(list), got)
			}
		}
		if got := findEntry(list, &KeywordBid{}, list[0].score); got != -1 {
			t.Fatalf("trial %d: findEntry of an absent bid = %d", trial, got)
		}
	}
}
