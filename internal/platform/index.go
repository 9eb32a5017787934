package platform

import (
	"cmp"
	"slices"
	"sync"
	"time"

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

	// staged counts the group's edits in the staging log, and worker is
	// the share of a flush that applies them (see Index.Flush).
	staged int
	worker int
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

	// The staging window, BeginStage to Flush: edits go to log in call
	// order instead of to the lists. touched holds the groups with edits
	// in the log, logCap the length at which the log applies itself
	// (stageLogCap outside tests), applying the window's wall time spent
	// in applyLog so far, load and shares a flush's per-share edit counts
	// and prebuilt goroutine bodies.
	staging  bool
	workers  int
	applying time.Duration
	log      []edit
	logCap   int
	touched  []*postings
	load     []int
	shares   []func()
	wg       sync.WaitGroup
}

// stageLogCap bounds the staging log: a window that stages more edits
// applies them in batches of this many, which is safe because nothing
// reads a posting list inside a window. 8 192 edits are 384 KiB.
const stageLogCap = 8192

// MaxPerList bounds how many live candidates a single posting list
// contributes to one auction. Head keywords in large verticals accumulate
// thousands of bids; only the top handful can ever win a slot.
const MaxPerList = 48

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{byVC: make(map[vcKey]*postings), logCap: stageLogCap}
}

// group resolves a (vertical, market) posting-list group, creating it
// when create is set; without create a missing group is nil.
func (x *Index) group(k vcKey, create bool) *postings {
	ps := x.byVC[k]
	if ps == nil && create {
		ps = &postings{kw: make(map[int32][]entry), broad: make(map[int32][]entry)}
		x.byVC[k] = ps
	}
	return ps
}

// listFor resolves the posting list map and key for a bid: broad bids live
// under their cluster, exact/phrase bids under their concrete keyword.
func (ps *postings) listFor(bid *KeywordBid) (map[int32][]entry, int32) {
	if bid.Match == MatchBroad {
		return ps.broad, int32(bid.Cluster)
	}
	return ps.kw, int32(bid.KeywordID)
}

// editKind is what one posting-list edit does.
type editKind uint8

const (
	editAdd editKind = iota
	editUpdate
	editRemove
)

// edit is one posting-list edit of one bid in group ps. It carries every
// value the edit reads that a caller may change afterwards, captured at
// call time: score is the new entry's MaxBid × Quality for an add and the
// lookup score for an update or a removal, to an update's new score.
// Shutdown, Close and RetireAd release ad.Bids right after PauseAd, and
// ModifyBid rewrites MaxBid right after UpdateBid, so neither may be read
// when a staged edit applies. What it does read then — the bid's match
// type, keyword and cluster, the ad's account — never changes.
type edit struct {
	ps    *postings
	ad    *Ad
	bid   *KeywordBid
	score float64
	to    float64
	kind  editKind
}

// apply performs the edit on its group's lists.
func (e *edit) apply() {
	m, id := e.ps.listFor(e.bid)
	list := m[id]
	switch e.kind {
	case editAdd:
		// Binary search for the insertion point (first element with a
		// lower score).
		lo, hi := 0, len(list)
		for lo < hi {
			mid := (lo + hi) / 2
			if list[mid].score >= e.score {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		list = append(list, entry{})
		copy(list[lo+1:], list[lo:])
		list[lo] = entry{ad: e.ad, bid: e.bid, score: e.score, acct: e.ad.Account, match: e.bid.Match}
		m[id] = list
	case editUpdate:
		if i := findEntry(list, e.bid, e.score); i >= 0 {
			list[i].score = e.to
		}
	case editRemove:
		i := findEntry(list, e.bid, e.score)
		if i < 0 {
			return
		}
		copy(list[i:], list[i+1:])
		list[len(list)-1] = entry{} // release the pointers for GC
		m[id] = list[:len(list)-1]
	}
}

// do applies an edit, or inside a staging window appends it to the log.
func (x *Index) do(e edit) {
	if !x.staging {
		e.apply()
		return
	}
	if e.ps.staged == 0 {
		x.touched = append(x.touched, e.ps)
	}
	e.ps.staged++
	x.log = append(x.log, e)
	if len(x.log) >= x.logCap {
		x.applyLog()
	}
}

// AddBid registers a bid in its posting list, preserving descending
// static-score order via binary insertion. Probes compare the cached
// current scores, which equal MaxBid × Quality at all times (UpdateBid
// maintains the invariant), so insertion positions are identical to
// recomputing the score per probe.
func (x *Index) AddBid(ad *Ad, bid *KeywordBid) {
	x.addBid(x.group(vcKey{ad.Vertical, ad.Target}, true), ad, bid)
}

// addBid is AddBid into an already resolved group, for callers that add
// several bids of one ad.
func (x *Index) addBid(ps *postings, ad *Ad, bid *KeywordBid) {
	x.do(edit{ps: ps, ad: ad, bid: bid, score: bid.MaxBid * ad.Quality, kind: editAdd})
}

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
// re-sync.
func (x *Index) UpdateBid(ad *Ad, bid *KeywordBid, newMax float64) {
	if ps := x.group(vcKey{ad.Vertical, ad.Target}, false); ps != nil {
		x.do(edit{ps: ps, bid: bid, score: bid.MaxBid * ad.Quality, to: newMax * ad.Quality, kind: editUpdate})
	}
}

// RemoveAd drops all of an ad's bids from the index. Each bid is located
// by score-guided binary search (with an outward-scan fallback for
// entries displaced by in-place modifications) and removed with a single tail
// copy, instead of rewriting every touched list.
func (x *Index) RemoveAd(ad *Ad) {
	ps := x.group(vcKey{ad.Vertical, ad.Target}, false)
	if ps == nil {
		return
	}
	for _, bid := range ad.Bids {
		x.do(edit{ps: ps, bid: bid, score: bid.MaxBid * ad.Quality, kind: editRemove})
	}
}

// BeginStage opens a staging window: until Flush, AddBid, UpdateBid and
// RemoveAd record their edit, with the values it reads captured, instead
// of editing the lists. Flush then applies each
// (vertical, market) group's edits in call order on one goroutine and
// spreads the groups over workers goroutines. An edit touches only its
// own group's lists, so every list sees exactly the edit sequence direct
// calls would have made, and holds the same bytes. Reading the lists
// inside a window (Sublists, Len, AppendIndex, Snapshot) panics.
func (x *Index) BeginStage(workers int) {
	if x.staging {
		panic("platform: BeginStage inside a staging window; call Index.Flush first")
	}
	x.staging = true
	x.workers = max(workers, 1)
	x.applying = 0
}

// Flush applies the staged edits and closes the window. It returns the
// wall time the window spent applying edits: this call's and that of
// every batch a full log applied before it.
func (x *Index) Flush() time.Duration {
	x.applyLog()
	x.staging = false
	return x.applying
}

// applyLog applies the log over min(workers, groups) goroutines, the
// calling one included: a longest-first greedy split of the groups by
// edit count gives each group to one share, and every share walks the
// log in order, applying its own groups' edits.
func (x *Index) applyLog() {
	t0 := time.Now()
	n := max(1, min(x.workers, len(x.touched)))
	slices.SortStableFunc(x.touched, func(a, b *postings) int { return cmp.Compare(b.staged, a.staged) })
	x.load = append(x.load[:0], make([]int, n)...)
	for _, ps := range x.touched {
		w := 0
		for i := 1; i < n; i++ {
			if x.load[i] < x.load[w] {
				w = i
			}
		}
		ps.worker = w
		x.load[w] += ps.staged
	}
	for len(x.shares) < n {
		w := len(x.shares)
		x.shares = append(x.shares, func() {
			defer x.wg.Done()
			x.applyShare(w)
		})
	}
	x.wg.Add(n - 1)
	for _, share := range x.shares[1:n] {
		go share()
	}
	x.applyShare(0)
	x.wg.Wait()
	for _, ps := range x.touched {
		ps.staged = 0
	}
	clear(x.touched)
	x.touched = x.touched[:0]
	clear(x.log) // release the pointers for GC
	x.log = x.log[:0]
	x.applying += time.Since(t0)
}

// applyShare applies, in log order, the edits of the groups assigned to
// share w.
func (x *Index) applyShare(w int) {
	for i := range x.log {
		if e := &x.log[i]; e.ps.worker == w {
			e.apply()
		}
	}
}

// flushed panics, naming the missing Flush, if a posting-list read comes
// inside a staging window.
func (x *Index) flushed(reader string) {
	if x.staging {
		panic("platform: " + reader + " read the posting lists inside a staging window; call Index.Flush first")
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
// query costs two int32 map probes. A handle is valid until the next
// index edit — resolve again after one (a pair with no lists yet
// resolves to an empty handle, which a later AddBid does not fill).
type Sublists struct {
	ps *postings
}

// Sublists resolves the posting-list group for a (vertical, market) pair.
func (x *Index) Sublists(v verticals.Vertical, c market.Country) Sublists {
	x.flushed("Sublists")
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
// Platform.LiveSet, stamped after the last index edit.
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
	x.flushed("Len")
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
