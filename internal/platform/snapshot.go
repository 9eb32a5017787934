package platform

// The reference writer. A Snapshot is the whole platform laid out flat,
// in the columns a checkpoint stores (FRSNAP version 5, see columns.go):
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
// A Snapshot shares no mutable memory with the platform it was taken
// from. No checkpoint builds one: a save writes the same bytes straight
// from the live tables (AppendTables, AppendIndex), and a restore decodes
// them straight into a live platform (DecodeColumns). Snapshot and
// AppendColumns are the reference the live writer is tested against, and
// how tests write frames a live platform never would.

import (
	"cmp"
	"slices"

	"repro/internal/market"
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
