package platform

import (
	"repro/internal/market"
	"repro/internal/verticals"
)

// BidRef is one eligible (ad, bid) pair returned by an index lookup.
type BidRef struct {
	Ad  *Ad
	Bid *KeywordBid
}

// vcKey addresses the per-(vertical, market) posting-list group. The two
// string-typed components make it an expensive hash key, which is exactly
// why the serving path resolves it once per (vertical, country) pair via
// Sublists instead of once per query.
type vcKey struct {
	vertical verticals.Vertical
	country  market.Country
}

// entry is one posting-list slot. Besides the (ad, bid) pointers it caches
// everything the eligibility filter needs — the current static score, the
// owning account and the match type — so the hot scan touches a flat
// 32-byte record instead of chasing two pointers per candidate.
//
// score is the *current* MaxBid × Quality, kept in sync by UpdateBid when
// a bid amount changes in place. Lists are ordered by score at insertion
// time and are not re-sorted on modification (agent bid tweaks are ±20%,
// well inside the pruning margin), so a list is only approximately sorted
// by current score; the removal fast path accounts for that.
type entry struct {
	ad    *Ad
	bid   *KeywordBid
	score float64
	acct  AccountID
	match MatchType
}

// postings groups the posting lists of one (vertical, market): exact and
// phrase bids keyed by concrete keyword ID, broad bids keyed by similarity
// cluster ID. int32-keyed maps use the runtime's fast map variants, unlike
// the string-bearing composite key the flat layout needed.
type postings struct {
	kw    map[int32][]entry
	broad map[int32][]entry
}

// Index is the serving-side bid index: for each (vertical, market,
// keyword) it can enumerate the bids whose match type makes them eligible
// for a query on that keyword. Exact and phrase bids are indexed under
// their concrete keyword; broad bids under their similarity cluster, since
// a broad bid matches any query whose keyword is in the same cluster.
//
// Posting lists are kept sorted by descending static rank score
// (MaxBid × Quality at insertion time), which lets the serving path prune
// to the top candidates of each list instead of scoring every bid on
// popular keywords — the same index-time pruning production ad servers
// rely on. Bid modifications after insertion do not re-sort (agent bid
// tweaks are ±20%, well inside the pruning margin).
type Index struct {
	byVC map[vcKey]*postings

	// epoch counts mutations that can change what a lookup returns:
	// posting-list edits (AddBid/RemoveAd) and in-place bid-amount
	// changes (UpdateBid, which Platform.ModifyBid calls ahead of its
	// write through the held pointer). Serving-side caches key their
	// validity on it — see internal/sim's per-day eligibility cache.
	// Account-liveness and fraud-flag flips are intentionally NOT counted:
	// every liveness transition of an account with indexed bids removes
	// those bids (Shutdown/Close/RetireAd pause the ads), and fraud flags
	// are never part of a lookup result.
	epoch uint64
}

// MaxPerList bounds how many live candidates a single posting list
// contributes to one auction. Head keywords in large verticals accumulate
// thousands of bids; only the top handful can ever win a slot.
const MaxPerList = 48

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{byVC: make(map[vcKey]*postings)}
}

// listFor resolves the posting list map and key for a bid: broad bids live
// under their cluster, exact/phrase bids under their concrete keyword.
func (ps *postings) listFor(bid *KeywordBid) (map[int32][]entry, int32) {
	if bid.Match == MatchBroad {
		return ps.broad, int32(bid.Cluster)
	}
	return ps.kw, int32(bid.KeywordID)
}

// AddBid registers a bid in its posting list, preserving descending
// static-score order via binary insertion. Probes compare the cached
// current scores, which equal MaxBid × Quality at all times (UpdateBid
// maintains the invariant), so insertion positions are identical to
// recomputing the score per probe.
func (x *Index) AddBid(ad *Ad, bid *KeywordBid) {
	x.epoch++
	k := vcKey{ad.Vertical, ad.Target}
	ps := x.byVC[k]
	if ps == nil {
		ps = &postings{kw: make(map[int32][]entry), broad: make(map[int32][]entry)}
		x.byVC[k] = ps
	}
	m, id := ps.listFor(bid)
	list := m[id]
	s := bid.MaxBid * ad.Quality
	// Binary search for the insertion point (first element with a lower
	// score).
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid].score >= s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	list = append(list, entry{})
	copy(list[lo+1:], list[lo:])
	list[lo] = entry{ad: ad, bid: bid, score: s, acct: ad.Account, match: bid.Match}
	m[id] = list
}

// Epoch returns the index's mutation counter. Two lookups bracketed by
// equal Epoch values are guaranteed to return the same bids with the
// same effective amounts (liveness filtering aside — see the field
// comment), which is what lets serving memoize eligibility and auction
// results across repeated hot queries.
func (x *Index) Epoch() uint64 { return x.epoch }

// findEntry locates a bid's slot in a posting list. The fast path binary
// searches by the entry's current score s and scans the equal-score run;
// because in-place bid modifications leave neighbors out of order, a
// misdirected search falls back to scanning outward from the probe, where
// a slightly displaced entry lies. A bid occurs once per list, so the
// search order cannot change the slot found. Returns -1 if absent.
func findEntry(list []entry, bid *KeywordBid, s float64) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid].score > s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	r := lo
	for ; r < len(list) && list[r].score == s; r++ {
		if list[r].bid == bid {
			return r
		}
	}
	for l := lo - 1; l >= 0 || r < len(list); l, r = l-1, r+1 {
		if l >= 0 && list[l].bid == bid {
			return l
		}
		if r < len(list) && list[r].bid == bid {
			return r
		}
	}
	return -1
}

// UpdateBid re-syncs a bid's cached posting-list score ahead of an
// in-place amount change. Call with the OLD amount still in bid.MaxBid
// (the old score is the lookup key); the caller writes the new amount
// after. Bids that are not indexed (paused ads) keep no entry to
// re-sync, but the epoch advances either way, as for every amount change.
func (x *Index) UpdateBid(ad *Ad, bid *KeywordBid, newMax float64) {
	x.epoch++
	ps := x.byVC[vcKey{ad.Vertical, ad.Target}]
	if ps == nil {
		return
	}
	m, id := ps.listFor(bid)
	list := m[id]
	if i := findEntry(list, bid, bid.MaxBid*ad.Quality); i >= 0 {
		list[i].score = newMax * ad.Quality
	}
}

// RemoveAd drops all of an ad's bids from the index. Each bid is located
// by score-guided binary search (with an outward-scan fallback for
// entries displaced by in-place modifications) and removed with a single tail
// copy, instead of rewriting every touched list.
func (x *Index) RemoveAd(ad *Ad) {
	x.epoch++
	ps := x.byVC[vcKey{ad.Vertical, ad.Target}]
	if ps == nil {
		return
	}
	for _, bid := range ad.Bids {
		m, id := ps.listFor(bid)
		list := m[id]
		i := findEntry(list, bid, bid.MaxBid*ad.Quality)
		if i < 0 {
			continue
		}
		copy(list[i:], list[i+1:])
		list[len(list)-1] = entry{} // release the pointers for GC
		m[id] = list[:len(list)-1]
	}
}

// QueryForm describes how a search query relates to its underlying
// keyword: the bare keyword, the keyword embedded in extra words (in
// order), or the keyword's tokens reordered/mixed with other words.
type QueryForm uint8

// Query forms, from most to least precise.
const (
	// FormBare: the query is exactly the keyword phrase.
	FormBare QueryForm = iota
	// FormExtended: the keyword phrase occurs in order with surrounding
	// words.
	FormExtended
	// FormReordered: the keyword's tokens occur out of order or
	// interleaved.
	FormReordered
)

// String returns the form's name.
func (f QueryForm) String() string {
	switch f {
	case FormBare:
		return "bare"
	case FormExtended:
		return "extended"
	default:
		return "reordered"
	}
}

// Matches implements the match-type semantics of §5.3 for a query on
// (keywordID, form) against a bid. Exact requires the bare form of the
// same keyword; phrase additionally accepts the extended form; broad
// accepts any form of any keyword in the same cluster.
func Matches(m MatchType, bidKw, queryKw int, sameCluster bool, form QueryForm) bool {
	switch m {
	case MatchExact:
		return bidKw == queryKw && form == FormBare
	case MatchPhrase:
		return bidKw == queryKw && (form == FormBare || form == FormExtended)
	case MatchBroad:
		return sameCluster
	default:
		return false
	}
}

// Sublists is a resolved (vertical, market) handle into the index: the
// two expensive composite-key map lookups are paid once, after which each
// query costs two int32 map probes. A handle is valid for the epoch it
// was resolved in — resolve again after the epoch advances (a pair with
// no lists yet resolves to an empty handle, and lists appearing later
// always bump the epoch).
type Sublists struct {
	ps *postings
}

// Sublists resolves the posting-list group for a (vertical, market) pair.
func (x *Index) Sublists(v verticals.Vertical, c market.Country) Sublists {
	return Sublists{ps: x.byVC[vcKey{v, c}]}
}

// EligibleAppendLive appends to dst the bids eligible for a query on
// keyword kw (cluster cl) with the given form — the §5.3 semantics of
// Matches — whose accounts are live, and returns the extended slice; dst
// may be a reused scratch buffer. Lists are score-sorted, so each
// contributes at most MaxPerList candidates: everything further down
// cannot outrank them. The liveness check is a dense array load
// (live[account]) and the match filter reads the entry's cached match
// type. live must cover every account with indexed bids — use
// Platform.LiveSet, which restamps whenever the index epoch moves.
//
// Inactive ads never appear in posting lists (every deactivation path
// goes through PauseAd → RemoveAd before the ad's bids are released), so
// no per-entry Active check is needed.
func (s Sublists) EligibleAppendLive(dst []BidRef, kw, cl int, form QueryForm, live []bool) []BidRef {
	if s.ps == nil {
		return dst
	}
	// Exact + phrase lists are keyed by the concrete keyword. A bare query
	// is accepted by both match types; an extended query only by phrase;
	// a reordered query by neither, so the whole scan is skipped.
	if form != FormReordered {
		phraseOnly := form == FormExtended
		taken := 0
		list := s.ps.kw[int32(kw)]
		for i := range list {
			if taken >= MaxPerList {
				break
			}
			e := &list[i]
			if !live[e.acct] || (phraseOnly && e.match != MatchPhrase) {
				continue
			}
			dst = append(dst, BidRef{Ad: e.ad, Bid: e.bid})
			taken++
		}
	}
	// Broad lists are keyed by cluster; every entry matches by definition.
	taken := 0
	list := s.ps.broad[int32(cl)]
	for i := range list {
		if taken >= MaxPerList {
			break
		}
		e := &list[i]
		if !live[e.acct] {
			continue
		}
		dst = append(dst, BidRef{Ad: e.ad, Bid: e.bid})
		taken++
	}
	return dst
}

// Len returns the total number of indexed bids (for tests and stats).
func (x *Index) Len() int {
	n := 0
	for _, ps := range x.byVC {
		for _, l := range ps.kw {
			n += len(l)
		}
		for _, l := range ps.broad {
			n += len(l)
		}
	}
	return n
}
