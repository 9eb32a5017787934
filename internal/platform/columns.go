package platform

// The checkpoint column codec (FRSNAP version 5). The platform is written
// as the fields of Snapshot in declaration order, each slice as a column:
// a uvarint row count, then the rows. Integers are zigzag varints (counts
// and lengths plain uvarints), floats 8 little-endian bytes, strings a
// uvarint length and the bytes, bools and the two uint8 enums one byte.
// Every column carries its own count, so a snapshot whose columns
// disagree with each other still encodes, and it is DecodeColumns that
// refuses it.
//
// There are two writers of the format and one reader. The live writer,
// AppendTables then AppendIndex, walks the platform's own tables and
// index with no Snapshot built in between; its two halves read disjoint
// state and write into disjoint buffers, so they may run at once.
// Snapshot.AppendColumns is the small reference writer: the oracle the
// live writer's bytes are pinned to, and how tests build frames a live
// platform could never produce. DecodeColumns reads the columns straight
// into a live platform, checking them as it goes.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/market"
	"repro/internal/simclock"
	"repro/internal/verticals"
)

// ColumnsVersion is the checkpoint format version (the FRSNAP header's
// version byte) whose platform columns this codec writes and reads.
// Version 5 dropped the live-ad count and the ledger's per-account maps,
// which DecodeColumns recounts or the accounts already hold.
const ColumnsVersion = 5

// The smallest encoded row of each row column: every string empty, every
// varint one byte. DecodeColumns bounds a column's row count by the bytes
// left over these before it allocates.
const (
	minAccountRow = 48
	minAdRow      = 27
	minIndexRow   = 5
)

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendCount(b []byte, n int) []byte { return binary.AppendUvarint(b, uint64(n)) }

// appendAccount writes an account row; its Ads are not part of it.
func appendAccount(b []byte, a *Account) []byte {
	b = binary.AppendVarint(b, int64(a.ID))
	b = appendF64(b, float64(a.Created))
	b = appendString(b, string(a.Country))
	b = appendString(b, a.Language)
	b = appendString(b, a.Currency)
	b = appendBool(b, a.Fraud)
	b = appendString(b, string(a.PrimaryVertical))
	b = appendBool(b, a.StolenPayment)
	b = binary.AppendVarint(b, int64(a.Generation))
	b = append(b, uint8(a.Status))
	b = appendF64(b, float64(a.ShutdownAt))
	b = appendString(b, a.ShutdownReason)
	b = appendF64(b, float64(a.FirstAdAt))
	b = binary.AppendVarint(b, a.Impressions)
	b = binary.AppendVarint(b, a.Clicks)
	b = appendF64(b, a.Spend)
	b = binary.AppendVarint(b, int64(a.AdsCreated))
	b = binary.AppendVarint(b, int64(a.AdsModified))
	b = binary.AppendVarint(b, int64(a.KeywordsCreated))
	return binary.AppendVarint(b, int64(a.KeywordsModified))
}

// appendAd writes an ad row; its Bids are not part of it.
func appendAd(b []byte, ad *Ad) []byte {
	b = binary.AppendVarint(b, int64(ad.ID))
	b = binary.AppendVarint(b, int64(ad.Account))
	b = appendString(b, string(ad.Vertical))
	b = appendString(b, string(ad.Target))
	b = appendString(b, ad.Creative.Title)
	b = appendString(b, ad.Creative.Body)
	b = appendString(b, ad.Creative.DisplayURL)
	b = appendString(b, ad.Creative.DestURL)
	b = appendBool(b, ad.Creative.HasPhone)
	b = appendBool(b, ad.Creative.EvasionUsed)
	b = appendF64(b, float64(ad.Created))
	b = appendBool(b, ad.Active)
	return appendF64(b, ad.Quality)
}

func appendIndexEntry(b []byte, e IndexEntry) []byte {
	b = appendString(b, string(e.Vertical))
	b = appendString(b, string(e.Country))
	b = binary.AppendVarint(b, int64(e.Kw))
	b = appendBool(b, e.Broad)
	return binary.AppendVarint(b, int64(e.Refs))
}

// ColumnScratch is the reusable working memory of AppendTables and
// AppendIndex. The two use disjoint fields, so one ColumnScratch serves
// both halves of a write running at once. The zero value is ready.
type ColumnScratch struct {
	// AppendTables: the bid columns after the first, filled in the same
	// walk as it.
	bidCounts, clusters, matches, maxes, created []byte

	// AppendIndex: the (vertical, country) groups, every non-empty
	// posting list in wire order, and the RefBid column.
	groups []vcKey
	lists  []keyedList
	refBid []byte
}

// keyedList is one posting list with its wire key, kw<<1 | broad, and
// its group's position in ColumnScratch.groups.
type keyedList struct {
	key   int64
	group int
	list  []entry
}

// AppendTables appends the first half of the platform's columns — the
// accounts, ads and bid columns and the ledger's two totals, from
// Accounts through TotalLost — straight from the live tables. It reads
// nothing AppendIndex writes.
func (p *Platform) AppendTables(dst []byte, sc *ColumnScratch) []byte {
	dst = appendCount(dst, len(p.accounts))
	nAds := 0
	for _, a := range p.accounts {
		dst = appendAccount(dst, a)
		nAds += len(a.Ads)
	}
	dst = binary.AppendVarint(dst, int64(p.nextAdID))
	dst = appendCount(dst, len(p.accounts))
	for _, a := range p.accounts {
		dst = binary.AppendVarint(dst, int64(len(a.Ads)))
	}

	dst = appendCount(dst, nAds)
	sc.bidCounts = sc.bidCounts[:0]
	nBids := 0
	for _, a := range p.accounts {
		for _, ad := range a.Ads {
			dst = appendAd(dst, ad)
			sc.bidCounts = binary.AppendVarint(sc.bidCounts, int64(len(ad.Bids)))
			nBids += len(ad.Bids)
		}
	}
	dst = append(appendCount(dst, nAds), sc.bidCounts...)

	// One walk over the bids writes the keyword column in place and the
	// other four beside it.
	dst = appendCount(dst, nBids)
	sc.clusters, sc.matches = sc.clusters[:0], sc.matches[:0]
	sc.maxes, sc.created = sc.maxes[:0], sc.created[:0]
	for _, a := range p.accounts {
		for _, ad := range a.Ads {
			for _, b := range ad.Bids {
				dst = binary.AppendVarint(dst, int64(b.KeywordID))
				sc.clusters = binary.AppendVarint(sc.clusters, int64(b.Cluster))
				sc.matches = append(sc.matches, uint8(b.Match))
				sc.maxes = appendF64(sc.maxes, b.MaxBid)
				sc.created = appendF64(sc.created, float64(b.Created))
			}
		}
	}
	for _, col := range [][]byte{sc.clusters, sc.matches, sc.maxes, sc.created} {
		dst = append(appendCount(dst, nBids), col...)
	}

	dst = appendF64(dst, p.ledger.totalBilled)
	return appendF64(dst, p.ledger.totalLost)
}

// AppendIndex appends the second half of the platform's columns — Index,
// RefAd and RefBid — straight from the live index. The posting lists go
// out in sorted key order for byte-determinism: groups by their string
// pair, then each group's lists by one integer key, so the big sort
// compares no strings. Lists emptied by ad removal keep their map slot for
// capacity reuse but are skipped. It reads nothing AppendTables writes.
func (p *Platform) AppendIndex(dst []byte, sc *ColumnScratch) []byte {
	p.index.flushed("AppendIndex")
	sc.groups = sc.groups[:0]
	for vc := range p.index.byVC {
		sc.groups = append(sc.groups, vc)
	}
	slices.SortFunc(sc.groups, func(a, b vcKey) int {
		return cmp.Or(cmp.Compare(a.vertical, b.vertical), cmp.Compare(a.country, b.country))
	})
	sc.lists = sc.lists[:0]
	nRefs := 0
	for g, vc := range sc.groups {
		ps := p.index.byVC[vc]
		start := len(sc.lists)
		for id, list := range ps.kw {
			if len(list) > 0 {
				sc.lists = append(sc.lists, keyedList{int64(id) << 1, g, list})
				nRefs += len(list)
			}
		}
		for id, list := range ps.broad {
			if len(list) > 0 {
				sc.lists = append(sc.lists, keyedList{int64(id)<<1 | 1, g, list})
				nRefs += len(list)
			}
		}
		slices.SortFunc(sc.lists[start:], func(a, b keyedList) int { return cmp.Compare(a.key, b.key) })
	}

	dst = appendCount(dst, len(sc.lists))
	for _, l := range sc.lists {
		vc := sc.groups[l.group]
		dst = appendIndexEntry(dst, IndexEntry{vc.vertical, vc.country, int32(l.key >> 1), l.key&1 == 1, int32(len(l.list))})
	}
	// One walk over the entries writes RefAd in place and RefBid beside
	// it. An entry's ad holds its bid (RemoveAd drops the entries before
	// Bids is released), and an ad carries a handful of bids, so a scan
	// finds the position faster than a map over every bid would.
	dst = appendCount(dst, nRefs)
	sc.refBid = sc.refBid[:0]
	for _, l := range sc.lists {
		for i := range l.list {
			e := &l.list[i]
			dst = binary.AppendVarint(dst, int64(e.ad.ID))
			sc.refBid = binary.AppendVarint(sc.refBid, int64(slices.Index(e.ad.Bids, e.bid)))
		}
	}
	return append(appendCount(dst, nRefs), sc.refBid...)
}

// AppendColumns is the reference writer: it appends the snapshot in the
// column format, field by field, exactly as DecodeColumns reads it.
func (st *Snapshot) AppendColumns(dst []byte) []byte {
	dst = appendCount(dst, len(st.Accounts))
	for i := range st.Accounts {
		dst = appendAccount(dst, &st.Accounts[i])
	}
	dst = binary.AppendVarint(dst, int64(st.NextAdID))
	dst = appendInts(dst, st.AdCount)
	dst = appendCount(dst, len(st.Ads))
	for i := range st.Ads {
		dst = appendAd(dst, &st.Ads[i])
	}
	dst = appendInts(dst, st.BidCount)
	dst = appendInts(dst, st.BidKeyword)
	dst = appendInts(dst, st.BidCluster)
	dst = append(appendCount(dst, len(st.BidMatch)), st.BidMatch...)
	dst = appendFloats(dst, st.BidMax)
	dst = appendFloats(dst, st.BidCreated)
	dst = appendF64(dst, st.TotalBilled)
	dst = appendF64(dst, st.TotalLost)
	dst = appendCount(dst, len(st.Index))
	for _, e := range st.Index {
		dst = appendIndexEntry(dst, e)
	}
	dst = appendInts(dst, st.RefAd)
	return appendInts(dst, st.RefBid)
}

func appendInts[T int | int32](dst []byte, col []T) []byte {
	dst = appendCount(dst, len(col))
	for _, v := range col {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

func appendFloats(dst []byte, col []float64) []byte {
	dst = appendCount(dst, len(col))
	for _, v := range col {
		dst = appendF64(dst, v)
	}
	return dst
}

// DecodeColumns reads the column format straight into a new Platform: it
// is the one read side of a checkpoint. It bounds every row count by the
// bytes left before it allocates, and checks every count, ID and index
// reference against the tables before it follows one. It refuses
// trailing bytes and never panics: bytes no live platform could have
// written are an error.
func DecodeColumns(data []byte) (*Platform, error) {
	r := &colReader{b: data}
	p := New()
	if ads, nBids, serving := r.tables(p); r.err == nil {
		r.index(p, ads, nBids, serving)
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
}

// adRow is a decoded ad and the row of its first bid in the bid columns.
type adRow struct {
	ad   *Ad
	bid0 int
}

// tables reads the first half of the columns, Accounts through TotalLost,
// into p. It returns the ads by ID, the number of bids, and how many of
// them the live index files: the bids of serving ads of active accounts.
func (r *colReader) tables(p *Platform) (ads map[AdID]adRow, nBids, serving int) {
	// The account table only grows, so the accounts live in one array;
	// ads and bids are retired individually and get allocations with
	// their own lifetimes.
	accts := make([]Account, r.count(minAccountRow))
	p.accounts = make([]*Account, len(accts))
	for i := range accts {
		a := &accts[i]
		r.account(a)
		if int(a.ID) != i {
			r.fail("account %d carries ID %d", i, a.ID)
		}
		p.accounts[i] = a
	}
	if p.nextAdID = AdID(r.int32()); p.nextAdID < 0 {
		r.fail("next ad ID %d is negative", p.nextAdID)
	}
	adCount, nAds := r.counts("ad", len(accts))
	if n := r.count(minAdRow); n != nAds {
		r.fail("ad counts sum to %d, have %d ads", nAds, n)
	}
	if r.err != nil {
		return nil, 0, 0
	}
	for i, a := range p.accounts {
		a.Ads = make([]*Ad, adCount[i])
		for j := range a.Ads {
			ad := new(Ad)
			r.ad(ad)
			if ad.Account != a.ID {
				r.fail("ad %d under account %d carries account %d", ad.ID, a.ID, ad.Account)
			}
			if ad.ID < 0 || ad.ID >= p.nextAdID {
				r.fail("ad ID %d outside [0, %d), the IDs issued so far", ad.ID, p.nextAdID)
			}
			if ad.Active {
				p.adsLive++
			}
			a.Ads[j] = ad
		}
	}

	bidCount, nBids := r.counts("bid", nAds)
	r.column("keyword", nBids, 1)
	if r.err != nil {
		return nil, 0, 0
	}
	ads = make(map[AdID]adRow, nAds)
	bids := make([]*KeywordBid, 0, nBids)
	k := 0
	for _, a := range p.accounts {
		for _, ad := range a.Ads {
			// One map write per ad: a repeated ID leaves the size as is.
			n := len(ads)
			ads[ad.ID] = adRow{ad, len(bids)}
			if len(ads) == n {
				r.fail("ad ID %d twice", ad.ID)
				return nil, 0, 0
			}
			// One exact-size backing array per ad, as AddBidsBatch
			// builds them.
			arr := make([]KeywordBid, bidCount[k])
			ad.Bids = make([]*KeywordBid, len(arr))
			for i := range arr {
				ad.Bids[i] = &arr[i]
			}
			bids = append(bids, ad.Bids...)
			if ad.Active && a.Status == StatusActive {
				serving += len(arr)
			}
			k++
		}
	}
	for _, b := range bids {
		b.KeywordID = r.int()
	}
	r.column("cluster", nBids, 1)
	for _, b := range bids {
		b.Cluster = r.int()
	}
	r.column("match", nBids, 1)
	for _, b := range bids {
		if b.Match = MatchType(r.byte()); b.Match > MatchBroad {
			r.fail("bid match byte %d", b.Match)
		}
	}
	r.column("max bid", nBids, 8)
	for _, b := range bids {
		b.MaxBid = r.f64()
	}
	r.column("created", nBids, 8)
	for _, b := range bids {
		b.Created = simclock.Stamp(r.f64())
	}
	p.ledger.totalBilled = r.f64()
	p.ledger.totalLost = r.f64()
	return ads, nBids, serving
}

// index reads the second half of the columns, Index through RefBid, into
// p's index. A reference must name a bid the live index would file under
// its list, and no other: a serving ad of an active account, in the
// list's market, under its own keyword (its cluster for a broad bid),
// once; and every one of the serving bids tables counted is named.
// nBids is the number of bid rows.
func (r *colReader) index(p *Platform, ads map[AdID]adRow, nBids, serving int) {
	keys := make([]IndexEntry, r.count(minIndexRow))
	nRefs := 0
	for i := range keys {
		e := &keys[i]
		e.Vertical = verticals.Vertical(r.sym())
		e.Country = market.Country(r.sym())
		e.Kw = r.int32()
		e.Broad = r.bool()
		if e.Refs = r.int32(); e.Refs < 0 {
			r.fail("index list %d has negative length %d", i, e.Refs)
		}
		nRefs += int(e.Refs)
	}
	r.column("ref ad", nRefs, 1)
	if r.err != nil {
		return
	}
	refAd := make([]int32, nRefs)
	for i := range refAd {
		refAd[i] = r.int32()
	}
	r.column("ref bid", nRefs, 1)
	if r.err != nil {
		return
	}
	seen := make([]bool, nBids)
	k := 0
	for _, e := range keys {
		vc := vcKey{e.Vertical, e.Country}
		ps := p.index.group(vc, true)
		m := ps.kw
		if e.Broad {
			m = ps.broad
		}
		if _, dup := m[e.Kw]; dup {
			r.fail("index list %s/%s %d (broad %t) twice", e.Vertical, e.Country, e.Kw, e.Broad)
			return
		}
		list := make([]entry, e.Refs)
		m[e.Kw] = list
		for i := range list {
			row, ok := ads[AdID(refAd[k])]
			pos := int(r.int32())
			k++
			if !ok || pos < 0 || pos >= len(row.ad.Bids) {
				r.fail("index references bid %d of ad %d, which is not there", pos, refAd[k-1])
				return
			}
			ad, b := row.ad, row.ad.Bids[pos]
			_, kw := ps.listFor(b)
			switch {
			case !ad.Active:
				r.fail("index references paused ad %d", ad.ID)
			case p.accounts[ad.Account].Status != StatusActive:
				r.fail("index references ad %d of a %s account", ad.ID, p.accounts[ad.Account].Status)
			case vcKey{ad.Vertical, ad.Target} != vc:
				r.fail("ad %d of %s/%s filed under %s/%s", ad.ID, ad.Vertical, ad.Target, e.Vertical, e.Country)
			case (b.Match == MatchBroad) != e.Broad || kw != e.Kw:
				r.fail("bid %d of ad %d (%s, keyword %d, cluster %d) filed under list %d (broad %t)",
					pos, ad.ID, b.Match, b.KeywordID, b.Cluster, e.Kw, e.Broad)
			case seen[row.bid0+pos]:
				r.fail("bid %d of ad %d referenced twice", pos, ad.ID)
			}
			seen[row.bid0+pos] = true
			// The cached score invariant is "current MaxBid × Quality"
			// (UpdateBid keeps it synced through in-place modifications),
			// so recomputing from the serialized amounts restores the
			// live run's exact values.
			list[i] = entry{ad: ad, bid: b, score: b.MaxBid * ad.Quality, acct: ad.Account, match: b.Match}
		}
	}
	if nRefs != serving {
		r.fail("index files %d bids, the serving ads hold %d", nRefs, serving)
	}
}

// colReader is DecodeColumns' cursor. The first error sticks and empties
// the input, so every later read returns a zero value and allocates
// nothing.
type colReader struct {
	b   []byte
	err error
	// syms interns the handful of distinct country, language, currency,
	// vertical and shutdown-reason strings that thousands of rows repeat.
	syms map[string]string
}

func (r *colReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("platform: columns: "+format, args...)
	}
	r.b = nil
}

// count reads a column's row count, refusing one whose rows of at least
// minRow bytes each could not fit in what is left.
func (r *colReader) count(minRow int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minRow) {
		r.fail("%d rows of at least %d bytes, %d bytes left", n, minRow, len(r.b))
		return 0
	}
	return int(n)
}

// counts reads a count column, one entry per row of the table before it,
// and returns it with its sum. No entry may be negative.
func (r *colReader) counts(what string, rows int) ([]int32, int) {
	col := make([]int32, r.count(1))
	if len(col) != rows {
		r.fail("%d %s counts for %d rows", len(col), what, rows)
	}
	sum := 0
	for i := range col {
		if col[i] = r.int32(); col[i] < 0 {
			r.fail("%s count %d is negative (%d)", what, i, col[i])
		}
		sum += int(col[i])
	}
	return col, sum
}

// column reads the row count of a column that must hold n rows of at
// least minRow bytes each.
func (r *colReader) column(what string, n, minRow int) {
	if got := r.count(minRow); got != n && r.err == nil {
		r.fail("%s column holds %d rows, the counts before it sum to %d", what, got, n)
	}
}

func (r *colReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *colReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *colReader) int() int { return int(r.varint()) }

func (r *colReader) int32() int32 {
	v := r.varint()
	if v != int64(int32(v)) {
		r.fail("%d overflows int32", v)
		return 0
	}
	return int32(v)
}

func (r *colReader) f64() float64 {
	if len(r.b) < 8 {
		r.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *colReader) byte() uint8 {
	if len(r.b) < 1 {
		r.fail("truncated byte")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *colReader) bool() bool {
	switch v := r.byte(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bool byte %d", v)
		return false
	}
}

// bytes reads a length-prefixed byte string, aliasing the input.
func (r *colReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("string of %d bytes, %d left", n, len(r.b))
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

func (r *colReader) str() string { return string(r.bytes()) }

func (r *colReader) sym() string {
	b := r.bytes()
	if s, ok := r.syms[string(b)]; ok {
		return s
	}
	if r.syms == nil {
		r.syms = make(map[string]string)
	}
	s := string(b)
	r.syms[s] = s
	return s
}

func (r *colReader) account(a *Account) {
	a.ID = AccountID(r.int32())
	a.Created = simclock.Stamp(r.f64())
	a.Country = market.Country(r.sym())
	a.Language = r.sym()
	a.Currency = r.sym()
	a.Fraud = r.bool()
	a.PrimaryVertical = verticals.Vertical(r.sym())
	a.StolenPayment = r.bool()
	a.Generation = r.int()
	if a.Status = AccountStatus(r.byte()); a.Status > StatusClosed {
		r.fail("account status byte %d", a.Status)
	}
	a.ShutdownAt = simclock.Stamp(r.f64())
	a.ShutdownReason = r.sym()
	a.FirstAdAt = simclock.Stamp(r.f64())
	a.Impressions = r.varint()
	a.Clicks = r.varint()
	a.Spend = r.f64()
	a.AdsCreated = r.int()
	a.AdsModified = r.int()
	a.KeywordsCreated = r.int()
	a.KeywordsModified = r.int()
}

func (r *colReader) ad(ad *Ad) {
	ad.ID = AdID(r.int32())
	ad.Account = AccountID(r.int32())
	ad.Vertical = verticals.Vertical(r.sym())
	ad.Target = market.Country(r.sym())
	ad.Creative.Title = r.str()
	ad.Creative.Body = r.str()
	ad.Creative.DisplayURL = r.str()
	ad.Creative.DestURL = r.str()
	ad.Creative.HasPhone = r.bool()
	ad.Creative.EvasionUsed = r.bool()
	ad.Created = simclock.Stamp(r.f64())
	ad.Active = r.bool()
	ad.Quality = r.f64()
}
