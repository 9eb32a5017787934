package platform

// Tests for the dense liveness bitmap the serving hot path filters with
// (Platform.LiveSet + Sublists.EligibleAppendLive): a stamp taken after
// a liveness transition must show it to the very next lookup, while
// fraud flags stay out of the stamp entirely (they are read live
// per impression — the uncached-fraud rule), and the fast path must stay
// allocation-free.

import (
	"testing"

	"repro/internal/adcopy"
	"repro/internal/market"
	"repro/internal/simclock"
	"repro/internal/verticals"
)

// liveFixture builds a platform with two active accounts, each holding
// one exact bid on keyword 3 (cluster 1).
func liveFixture(t *testing.T) (*Platform, *Account, *Account) {
	t.Helper()
	p := New()
	var accts [2]*Account
	for i := range accts {
		a := p.Register(RegistrationRequest{Country: market.US, PrimaryVertical: verticals.Games})
		if err := p.Approve(a.ID); err != nil {
			t.Fatal(err)
		}
		ad, err := p.CreateAd(a.ID, verticals.Games, market.US, adcopy.Creative{}, 0.5, simclock.StampAt(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.AddBid(ad, KeywordBid{KeywordID: 3, Cluster: 1, Match: MatchExact, MaxBid: 1}, 0); err != nil {
			t.Fatal(err)
		}
		accts[i] = a
	}
	return p, accts[0], accts[1]
}

// eligibleLive runs the serving fast path: stamp the bitmap, resolve the
// sublists, filter.
func eligibleLive(p *Platform, dst []BidRef) []BidRef {
	sl := p.Index().Sublists(verticals.Games, market.US)
	return sl.EligibleAppendLive(dst[:0], 3, 1, FormBare, p.LiveSet())
}

func TestLiveSetSuspensionVisibleToNextQuery(t *testing.T) {
	p, a, b := liveFixture(t)
	live := p.LiveSet()
	if !live[a.ID] || !live[b.ID] {
		t.Fatal("active accounts not marked live")
	}
	if got := eligibleLive(p, nil); len(got) != 2 {
		t.Fatalf("%d eligible before suspension, want 2", len(got))
	}

	// Suspend a mid-day. The enforcement removes a's bids and flips its
	// status, so the next stamp and the very next query both drop it,
	// with no explicit invalidation call.
	if err := p.Shutdown(a.ID, simclock.StampAt(1, 0.5), "policy"); err != nil {
		t.Fatal(err)
	}
	live = p.LiveSet()
	if live[a.ID] {
		t.Fatal("suspended account still live in the restamped bitmap")
	}
	if !live[b.ID] {
		t.Fatal("unrelated account lost liveness")
	}
	got := eligibleLive(p, nil)
	if len(got) != 1 || got[0].Ad.Account != b.ID {
		t.Fatalf("next query after suspension served %d refs", len(got))
	}
}

func TestLiveSetVoluntaryCloseVisibleToNextQuery(t *testing.T) {
	p, a, b := liveFixture(t)
	p.LiveSet() // stamp before the transition
	if err := p.Close(b.ID, simclock.StampAt(1, 0.25)); err != nil {
		t.Fatal(err)
	}
	if p.LiveSet()[b.ID] {
		t.Fatal("closed account still live in the restamped bitmap")
	}
	got := eligibleLive(p, nil)
	if len(got) != 1 || got[0].Ad.Account != a.ID {
		t.Fatalf("next query after close served %d refs", len(got))
	}
}

// TestLiveSetGrowsWithRegistrations: accounts that appear after the stamp
// have no indexed bids yet, but a later stamp must cover their IDs by the
// time they do, although the registration itself edits no index list.
func TestLiveSetGrowsWithRegistrations(t *testing.T) {
	p, _, _ := liveFixture(t)
	stamped := p.LiveSet()
	c := p.Register(RegistrationRequest{Country: market.US, PrimaryVertical: verticals.Games})
	if err := p.Approve(c.ID); err != nil {
		t.Fatal(err)
	}
	if len(stamped) > int(c.ID) && stamped[c.ID] {
		t.Fatal("stale stamp covered the new account")
	}
	live := p.LiveSet()
	if len(live) != p.NumAccounts() || !live[c.ID] {
		t.Fatalf("restamped bitmap does not cover the new account: len=%d", len(live))
	}

	// And once the newcomer indexes a bid, the fast path serves it.
	ad, err := p.CreateAd(c.ID, verticals.Games, market.US, adcopy.Creative{}, 0.9, simclock.StampAt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddBid(ad, KeywordBid{KeywordID: 3, Cluster: 1, Match: MatchExact, MaxBid: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if got := eligibleLive(p, nil); len(got) != 3 {
		t.Fatalf("%d eligible after newcomer's bid, want 3", len(got))
	}
}

// TestFraudFlagNeverCached: flipping an account's fraud flag changes
// neither the bitmap nor eligibility — the flag is intentionally not part
// of the stamp and must be read live from the account at impression time,
// so a mid-day flip is always observed without touching the index.
func TestFraudFlagNeverCached(t *testing.T) {
	p, a, _ := liveFixture(t)
	p.MustAccount(a.ID).Fraud = true
	live := p.LiveSet()
	if !live[a.ID] {
		t.Fatal("fraud flip changed liveness")
	}
	got := eligibleLive(p, nil)
	if len(got) != 2 {
		t.Fatalf("fraud flip changed eligibility: %d refs", len(got))
	}
	// The serving loop reads the flag through the account it resolves per
	// placement, so the flip is visible immediately.
	for _, ref := range got {
		if ref.Ad.Account == a.ID && !p.MustAccount(ref.Ad.Account).Fraud {
			t.Fatal("live fraud read missed the flip")
		}
	}
}

// TestLiveSetIsCallerOwned: each stamp is a fresh bitmap the caller
// owns, so a write into one leaves the next stamp untouched.
func TestLiveSetIsCallerOwned(t *testing.T) {
	p, a, _ := liveFixture(t)
	first := p.LiveSet()
	first[a.ID] = false
	if !p.LiveSet()[a.ID] {
		t.Fatal("a write into one stamp showed through the next: LiveSet handed back a shared bitmap")
	}
}

// TestEligibleAppendLiveAllocs pins the eligibility fast path at zero
// steady-state allocations: array-load liveness filtering into a warm
// destination buffer.
func TestEligibleAppendLiveAllocs(t *testing.T) {
	p, _, _ := liveFixture(t)
	live := p.LiveSet()
	sl := p.Index().Sublists(verticals.Games, market.US)
	dst := make([]BidRef, 0, 16)
	avg := testing.AllocsPerRun(100, func() {
		dst = sl.EligibleAppendLive(dst[:0], 3, 1, FormBare, live)
	})
	if avg != 0 {
		t.Fatalf("EligibleAppendLive allocates %.2f objects/op steady-state, want 0", avg)
	}
	if len(dst) != 2 {
		t.Fatalf("fast path returned %d refs, want 2", len(dst))
	}
}
