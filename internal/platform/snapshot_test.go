package platform

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adcopy"
	"repro/internal/market"
	"repro/internal/simclock"
	"repro/internal/verticals"
)

// snapshotFixture is a platform that exercises every snapshot column:
// several accounts, ads with batched and single bids of all match types,
// equal-score ties, a retired ad (slot swap), a shut-down account (ads
// kept, bids released), a second market, and both ledger maps.
func snapshotFixture(t *testing.T) *Platform {
	t.Helper()
	p := New()
	var ads []*Ad
	for i := 0; i < 4; i++ {
		a := newAccount(t, p, i == 3)
		approve(t, p, a.ID)
		for j := 0; j < 3; j++ {
			target := market.US
			if j == 2 {
				target = market.GB
			}
			ad, err := p.CreateAd(a.ID, verticals.Downloads, target,
				adcopy.Creative{Title: "t", DisplayURL: "www.x.com"}, 0.5, simclock.StampAt(1, 0.5))
			if err != nil {
				t.Fatal(err)
			}
			p.AddBidsBatch(ad, []KeywordBid{
				{KeywordID: 1, Cluster: 0, Match: MatchExact, MaxBid: 1},
				{KeywordID: 1, Cluster: 0, Match: MatchPhrase, MaxBid: 1},
				{KeywordID: 2 + j, Cluster: 1, Match: MatchBroad, MaxBid: 0.5 + float64(i)},
			}, simclock.StampAt(1, 0.6))
			if err := p.AddBid(ad, KeywordBid{KeywordID: 7, Cluster: 2, Match: MatchExact, MaxBid: 2}, simclock.StampAt(2, 0)); err != nil {
				t.Fatal(err)
			}
			ads = append(ads, ad)
		}
	}
	p.ModifyBid(ads[1], ads[1].Bids[0], 1.1)
	p.RetireAd(ads[3])
	if err := p.Shutdown(2, simclock.StampAt(3, 0), "test"); err != nil {
		t.Fatal(err)
	}
	p.Bill(0, 1.5)
	p.Bill(3, 0.7) // stolen payment: lands in uncollected
	return p
}

func encodeSnapshot(t *testing.T, st *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Encode(gob.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotFieldsComplete pins fields() — the wire order Encode and
// Decode share — to the struct: a field added to Snapshot but not to the
// list would silently not be checkpointed.
func TestSnapshotFieldsComplete(t *testing.T) {
	st := new(Snapshot)
	v := reflect.ValueOf(st).Elem()
	fields := st.fields()
	if len(fields) != v.NumField() {
		t.Fatalf("fields() lists %d of Snapshot's %d fields", len(fields), v.NumField())
	}
	seen := map[any]bool{}
	for i := 0; i < v.NumField(); i++ {
		seen[v.Field(i).Addr().Interface()] = true
	}
	for i, f := range fields {
		if !seen[f] {
			t.Fatalf("fields()[%d] (%T) is not the address of a Snapshot field", i, f)
		}
		delete(seen, f)
	}
}

// TestSnapshotRoundTripByteEqual: encode → decode → FromSnapshot →
// Snapshot → encode reproduces the bytes, and the restored platform
// serves the same posting lists in the same order.
func TestSnapshotRoundTripByteEqual(t *testing.T) {
	p := snapshotFixture(t)
	first := encodeSnapshot(t, p.Snapshot())
	if again := encodeSnapshot(t, p.Snapshot()); !bytes.Equal(first, again) {
		t.Fatal("two snapshots of one state encode differently")
	}

	var decoded Snapshot
	if err := decoded.Decode(gob.NewDecoder(bytes.NewReader(first))); err != nil {
		t.Fatal(err)
	}
	q, err := FromSnapshot(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if second := encodeSnapshot(t, q.Snapshot()); !bytes.Equal(first, second) {
		t.Fatalf("round trip changed the encoding: %d bytes -> %d bytes", len(first), len(second))
	}

	if q.Index().Len() != p.Index().Len() || q.LiveAds() != p.LiveAds() || q.NumAccounts() != p.NumAccounts() {
		t.Fatalf("restored platform has %d refs / %d live ads / %d accounts, want %d / %d / %d",
			q.Index().Len(), q.LiveAds(), q.NumAccounts(), p.Index().Len(), p.LiveAds(), p.NumAccounts())
	}
	for _, c := range []market.Country{market.US, market.GB} {
		for kw := 0; kw < 8; kw++ {
			want := eligible(p.Index(), verticals.Downloads, c, kw, 1, FormBare, allLive(p))
			got := eligible(q.Index(), verticals.Downloads, c, kw, 1, FormBare, allLive(q))
			if len(got) != len(want) {
				t.Fatalf("%s kw %d: %d eligible, want %d", c, kw, len(got), len(want))
			}
			for i := range want {
				if got[i].Ad.ID != want[i].Ad.ID || *got[i].Bid != *want[i].Bid {
					t.Fatalf("%s kw %d slot %d: ad %d bid %+v, want ad %d bid %+v",
						c, kw, i, got[i].Ad.ID, *got[i].Bid, want[i].Ad.ID, *want[i].Bid)
				}
			}
		}
	}
	// The restored index points at the restored ads' own bids, not copies.
	ad := q.MustAccount(0).Ads[0]
	found := false
	for _, ref := range eligible(q.Index(), verticals.Downloads, ad.Target, ad.Bids[0].KeywordID, 0, FormBare, allLive(q)) {
		found = found || (ref.Ad == ad && ref.Bid == ad.Bids[0])
	}
	if !found {
		t.Fatal("restored index does not hold the restored ad's bid")
	}
}

// TestFromSnapshotRejectsInconsistentColumns: every way the flat layout
// can disagree with itself is an error, never a panic or a silently
// misattributed bid.
func TestFromSnapshotRejectsInconsistentColumns(t *testing.T) {
	for _, tc := range []struct {
		name   string
		break_ func(st *Snapshot)
		want   string
	}{
		{"short ad counts", func(st *Snapshot) { st.AdCount = st.AdCount[1:] }, "ad counts for"},
		{"short bid counts", func(st *Snapshot) { st.BidCount = st.BidCount[1:] }, "bid counts for"},
		{"negative ad count", func(st *Snapshot) { st.AdCount[0] = -1 }, "negative"},
		{"negative bid count", func(st *Snapshot) { st.BidCount[0] = -4 }, "negative"},
		{"ad counts oversum", func(st *Snapshot) { st.AdCount[0]++ }, "ad counts sum"},
		{"ad counts undersum", func(st *Snapshot) { st.AdCount[1]-- }, "ad counts sum"},
		{"bid counts oversum", func(st *Snapshot) { st.BidCount[0] += 2 }, "bid counts sum"},
		{"short keyword column", func(st *Snapshot) { st.BidKeyword = st.BidKeyword[1:] }, "bid counts sum"},
		{"short cluster column", func(st *Snapshot) { st.BidCluster = st.BidCluster[:0] }, "bid counts sum"},
		{"short match column", func(st *Snapshot) { st.BidMatch = st.BidMatch[1:] }, "bid counts sum"},
		{"long max column", func(st *Snapshot) { st.BidMax = append(st.BidMax, 1) }, "bid counts sum"},
		{"short created column", func(st *Snapshot) { st.BidCreated = nil }, "bid counts sum"},
		{"bids moved between ads", func(st *Snapshot) { st.BidCount[0]--; st.BidCount[1]++ }, "references bid"},
		{"ad under the wrong account", func(st *Snapshot) { st.AdCount[0]--; st.AdCount[1]++ }, "carries account"},
		{"account ID out of place", func(st *Snapshot) { st.Accounts[1].ID = 3 }, "carries ID"},
		{"negative list length", func(st *Snapshot) { st.Index[0].Refs = -1 }, "negative length"},
		{"list lengths oversum", func(st *Snapshot) { st.Index[0].Refs++ }, "refs"},
		{"short ref ad column", func(st *Snapshot) { st.RefAd = st.RefAd[1:] }, "refs"},
		{"short ref bid column", func(st *Snapshot) { st.RefBid = st.RefBid[1:] }, "refs"},
		{"unknown ad", func(st *Snapshot) { st.RefAd[0] = 9999 }, "unknown ad"},
		{"bid position out of range", func(st *Snapshot) { st.RefBid[0] = 99 }, "references bid"},
		{"negative bid position", func(st *Snapshot) { st.RefBid[0] = -1 }, "references bid"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := snapshotFixture(t).Snapshot()
			tc.break_(st)
			p, err := FromSnapshot(st)
			if err == nil {
				t.Fatalf("accepted (platform with %d accounts)", p.NumAccounts())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rejected with %q, want mention of %q", err, tc.want)
			}
		})
	}
	if _, err := FromSnapshot(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}
