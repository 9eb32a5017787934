package platform

// Checkpoint support. A Snapshot is the whole platform laid out flat, in
// the columns a checkpoint stores (FRSNAP version 5, see columns.go):
//
//   - Accounts and ads are value copies with their child slices cleared
//     (an account's Ads, an ad's Bids); AdCount and BidCount say how many
//     of the following rows belong to each parent. Ads appear in account
//     order, bids in ad order, both in slice-position order.
//
//   - Bids — two orders of magnitude more numerous than accounts — are
//     stored as one column per field.
//
//   - The eligible-bid index holds pointers into the account table and its
//     posting lists are ordered by descending static score with ties in
//     *insertion order* (AddBid's binary insertion is stable only for the
//     sequence it saw). Rebuilding the index by re-inserting bids in any
//     other order could reorder equal-score ties and change auction
//     outcomes, so the index is serialized explicitly as (AdID, bid
//     position) references in list order — again as two columns, with a
//     per-list count — and restored by direct append.
//
//   - Nothing the tables determine is stored: the live-ad count is
//     recounted from the ads' Active flags, and an account's billed and
//     uncollected amounts are its Spend (Account.Uncollected). The
//     ledger's two totals are stored because they are sums in charge
//     order, which no walk of the accounts reproduces bit for bit.
//
// A Snapshot shares no mutable memory with the platform it was taken from.
// A checkpoint save never builds one: the platform writes the same bytes
// straight from its live tables (AppendTables, AppendIndex). Snapshot is
// the read side — DecodeColumns fills one for FromSnapshot to validate —
// and the reference the live writer is tested against.

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/market"
	"repro/internal/simclock"
	"repro/internal/verticals"
)

// IndexEntry is one posting list's key and its number of rows in the
// RefAd/RefBid columns.
type IndexEntry struct {
	Vertical verticals.Vertical
	Country  market.Country
	Kw       int32
	Broad    bool
	Refs     int32
}

// Snapshot is the serializable state of a Platform.
type Snapshot struct {
	Accounts []Account // Ads cleared; see AdCount
	NextAdID AdID

	AdCount []int32 // per account: its rows in Ads
	Ads     []Ad    // Bids cleared; see BidCount

	// One row per bid across the five Bid* columns.
	BidCount   []int32 // per ad: its rows in the bid columns
	BidKeyword []int
	BidCluster []int
	BidMatch   []uint8
	BidMax     []float64
	BidCreated []float64

	TotalBilled float64
	TotalLost   float64

	// One row per posting-list slot across RefAd/RefBid: the ad and the
	// position of the bid within that ad's Bids.
	Index  []IndexEntry
	RefAd  []int32
	RefBid []int32
}

// Snapshot captures the platform's full state.
func (p *Platform) Snapshot() *Snapshot {
	p.index.flushed("Snapshot")
	st := &Snapshot{
		Accounts:    make([]Account, len(p.accounts)),
		NextAdID:    p.nextAdID,
		AdCount:     make([]int32, len(p.accounts)),
		TotalBilled: p.ledger.totalBilled,
		TotalLost:   p.ledger.totalLost,
	}

	nAds, nBids := 0, 0
	for _, a := range p.accounts {
		nAds += len(a.Ads)
		for _, ad := range a.Ads {
			nBids += len(ad.Bids)
		}
	}
	st.Ads = make([]Ad, 0, nAds)
	st.BidCount = make([]int32, 0, nAds)
	st.BidKeyword = make([]int, 0, nBids)
	st.BidCluster = make([]int, 0, nBids)
	st.BidMatch = make([]uint8, 0, nBids)
	st.BidMax = make([]float64, 0, nBids)
	st.BidCreated = make([]float64, 0, nBids)
	for i, a := range p.accounts {
		st.Accounts[i] = *a
		st.Accounts[i].Ads = nil
		st.AdCount[i] = int32(len(a.Ads))
		for _, ad := range a.Ads {
			st.Ads = append(st.Ads, *ad)
			st.Ads[len(st.Ads)-1].Bids = nil
			st.BidCount = append(st.BidCount, int32(len(ad.Bids)))
			for _, b := range ad.Bids {
				st.BidKeyword = append(st.BidKeyword, b.KeywordID)
				st.BidCluster = append(st.BidCluster, b.Cluster)
				st.BidMatch = append(st.BidMatch, uint8(b.Match))
				st.BidMax = append(st.BidMax, b.MaxBid)
				st.BidCreated = append(st.BidCreated, float64(b.Created))
			}
		}
	}

	// Flatten the two-level index into (vertical, country, kw, broad)
	// keyed lists in sorted key order, for byte-determinism: groups by
	// their string pair, then each group's lists by one integer key, so
	// the big sort compares no strings. Lists emptied by ad removal keep
	// their map slot for capacity reuse but are skipped here.
	vcs := make([]vcKey, 0, len(p.index.byVC))
	nLists := 0
	for vc, ps := range p.index.byVC {
		vcs = append(vcs, vc)
		nLists += len(ps.kw) + len(ps.broad)
	}
	slices.SortFunc(vcs, func(a, b vcKey) int {
		return cmp.Or(cmp.Compare(a.vertical, b.vertical), cmp.Compare(a.country, b.country))
	})
	var lists []keyedList
	st.Index = make([]IndexEntry, 0, nLists)
	// Every posting-list slot is a distinct live bid.
	st.RefAd = make([]int32, 0, nBids)
	st.RefBid = make([]int32, 0, nBids)
	for _, vc := range vcs {
		ps := p.index.byVC[vc]
		lists = lists[:0]
		for id, list := range ps.kw {
			if len(list) > 0 {
				lists = append(lists, keyedList{key: int64(id) << 1, list: list})
			}
		}
		for id, list := range ps.broad {
			if len(list) > 0 {
				lists = append(lists, keyedList{key: int64(id)<<1 | 1, list: list})
			}
		}
		slices.SortFunc(lists, func(a, b keyedList) int { return cmp.Compare(a.key, b.key) })
		for _, l := range lists {
			st.Index = append(st.Index, IndexEntry{vc.vertical, vc.country, int32(l.key >> 1), l.key&1 == 1, int32(len(l.list))})
			for i := range l.list {
				// An entry's ad holds its bid (RemoveAd drops the entries
				// before Bids is released), and an ad carries a handful
				// of bids, so a scan finds the position faster than a map
				// over every bid on the platform would.
				e := &l.list[i]
				st.RefAd = append(st.RefAd, int32(e.ad.ID))
				st.RefBid = append(st.RefBid, int32(slices.Index(e.ad.Bids, e.bid)))
			}
		}
	}
	return st
}

// sumCounts adds up a count column, rejecting negative entries.
func sumCounts(what string, counts []int32) (int, error) {
	n := 0
	for i, c := range counts {
		if c < 0 {
			return 0, fmt.Errorf("platform: snapshot %s count %d is negative (%d)", what, i, c)
		}
		n += int(c)
	}
	return n, nil
}

// FromSnapshot rebuilds a Platform from a snapshot, taking ownership of
// it. Column lengths, counts and all cross-references are checked so
// hostile snapshot bytes yield an error, never a panic.
func FromSnapshot(st *Snapshot) (*Platform, error) {
	if st == nil {
		return nil, fmt.Errorf("platform: nil snapshot")
	}
	if len(st.AdCount) != len(st.Accounts) || len(st.BidCount) != len(st.Ads) {
		return nil, fmt.Errorf("platform: snapshot has %d ad counts for %d accounts, %d bid counts for %d ads",
			len(st.AdCount), len(st.Accounts), len(st.BidCount), len(st.Ads))
	}
	nAds, err := sumCounts("ad", st.AdCount)
	if err != nil {
		return nil, err
	}
	nBids, err := sumCounts("bid", st.BidCount)
	if err != nil {
		return nil, err
	}
	if nAds != len(st.Ads) {
		return nil, fmt.Errorf("platform: snapshot ad counts sum to %d, have %d ads", nAds, len(st.Ads))
	}
	if nBids != len(st.BidKeyword) || nBids != len(st.BidCluster) || nBids != len(st.BidMatch) ||
		nBids != len(st.BidMax) || nBids != len(st.BidCreated) {
		return nil, fmt.Errorf("platform: snapshot bid counts sum to %d, columns hold %d/%d/%d/%d/%d",
			nBids, len(st.BidKeyword), len(st.BidCluster), len(st.BidMatch), len(st.BidMax), len(st.BidCreated))
	}

	p := New()
	p.nextAdID = st.NextAdID
	p.accounts = make([]*Account, len(st.Accounts))
	adByID := make(map[AdID]*Ad, len(st.Ads))
	nextAd, nextBid := 0, 0
	for i := range st.Accounts {
		// The account table only grows, so the accounts can live in the
		// snapshot's one array; ads and bids are retired individually
		// and get allocations with their own lifetimes.
		a := &st.Accounts[i]
		if int(a.ID) != i {
			return nil, fmt.Errorf("platform: snapshot account %d carries ID %d", i, a.ID)
		}
		a.Ads = nil
		if n := int(st.AdCount[i]); n > 0 {
			a.Ads = make([]*Ad, n)
		}
		for j := range a.Ads {
			ad := new(Ad)
			*ad = st.Ads[nextAd]
			if ad.Account != a.ID {
				return nil, fmt.Errorf("platform: snapshot ad %d under account %d carries account %d", ad.ID, a.ID, ad.Account)
			}
			ad.Bids = nil
			if n := int(st.BidCount[nextAd]); n > 0 {
				// One exact-size backing array per ad, as AddBidsBatch
				// builds them.
				arr := make([]KeywordBid, n)
				ad.Bids = make([]*KeywordBid, n)
				for k := range arr {
					arr[k] = KeywordBid{
						KeywordID: st.BidKeyword[nextBid],
						Cluster:   st.BidCluster[nextBid],
						Match:     MatchType(st.BidMatch[nextBid]),
						MaxBid:    st.BidMax[nextBid],
						Created:   simclock.Stamp(st.BidCreated[nextBid]),
					}
					ad.Bids[k] = &arr[k]
					nextBid++
				}
			}
			nextAd++
			if ad.Active {
				p.adsLive++
			}
			a.Ads[j] = ad
			adByID[ad.ID] = ad
		}
		p.accounts[i] = a
	}

	nRefs := 0
	for i := range st.Index {
		if st.Index[i].Refs < 0 {
			return nil, fmt.Errorf("platform: snapshot index list %d has negative length %d", i, st.Index[i].Refs)
		}
		nRefs += int(st.Index[i].Refs)
	}
	if nRefs != len(st.RefAd) || nRefs != len(st.RefBid) {
		return nil, fmt.Errorf("platform: snapshot index lists sum to %d refs, columns hold %d/%d", nRefs, len(st.RefAd), len(st.RefBid))
	}
	next := 0
	for _, e := range st.Index {
		ps := p.index.byVC[vcKey{e.Vertical, e.Country}]
		if ps == nil {
			ps = &postings{kw: make(map[int32][]entry), broad: make(map[int32][]entry)}
			p.index.byVC[vcKey{e.Vertical, e.Country}] = ps
		}
		list := make([]entry, e.Refs)
		for i := range list {
			adID, pos := AdID(st.RefAd[next]), st.RefBid[next]
			next++
			ad, ok := adByID[adID]
			if !ok {
				return nil, fmt.Errorf("platform: snapshot index references unknown ad %d", adID)
			}
			if pos < 0 || int(pos) >= len(ad.Bids) {
				return nil, fmt.Errorf("platform: snapshot index references bid %d of ad %d (has %d)", pos, adID, len(ad.Bids))
			}
			b := ad.Bids[pos]
			// The cached score invariant is "current MaxBid × Quality"
			// (UpdateBid keeps it synced through in-place modifications),
			// so recomputing from the serialized amounts restores the
			// live run's exact values.
			list[i] = entry{ad: ad, bid: b, score: b.MaxBid * ad.Quality, acct: ad.Account, match: b.Match}
		}
		if e.Broad {
			ps.broad[e.Kw] = list
		} else {
			ps.kw[e.Kw] = list
		}
	}

	p.ledger.totalBilled = st.TotalBilled
	p.ledger.totalLost = st.TotalLost
	return p, nil
}
