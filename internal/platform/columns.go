package platform

// The checkpoint column codec (FRSNAP version 5). The platform is written
// as the fields of Snapshot in declaration order, each slice as a column:
// a uvarint row count, then the rows. Integers are zigzag varints (counts
// and lengths plain uvarints), floats 8 little-endian bytes, strings a
// uvarint length and the bytes, bools and the two uint8 enums one byte.
// Every column carries its own count, so a snapshot whose columns
// disagree with each other still encodes, and it is FromSnapshot that
// refuses it.
//
// There are two writers of the format. The live one, AppendTables then
// AppendIndex, walks the platform's own tables and index with no Snapshot
// built in between; its two halves read disjoint state and write into
// disjoint buffers, so they may run at once. Snapshot.AppendColumns is
// the small reference writer: the inverse of DecodeColumns, the oracle
// the live writer's bytes are pinned to, and how tests build frames a
// live platform could never produce.

import (
	"bytes"
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
// which FromSnapshot recounts or the accounts already hold.
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

// DecodeColumns reads the column format into a Snapshot for FromSnapshot
// to validate. It checks every row count against the bytes left before it
// allocates, refuses trailing bytes, and never panics.
func DecodeColumns(data []byte) (*Snapshot, error) {
	r := &colReader{b: data}
	st := new(Snapshot)
	st.Accounts = make([]Account, r.count(minAccountRow))
	for i := range st.Accounts {
		r.account(&st.Accounts[i])
	}
	st.NextAdID = AdID(r.int32())
	st.AdCount = readInts[int32](r)
	st.Ads = make([]Ad, r.count(minAdRow))
	for i := range st.Ads {
		r.ad(&st.Ads[i])
	}
	st.BidCount = readInts[int32](r)
	st.BidKeyword = readInts[int](r)
	st.BidCluster = readInts[int](r)
	st.BidMatch = bytes.Clone(r.next(r.count(1)))
	st.BidMax = readFloats(r)
	st.BidCreated = readFloats(r)
	st.TotalBilled = r.f64()
	st.TotalLost = r.f64()
	st.Index = make([]IndexEntry, r.count(minIndexRow))
	for i := range st.Index {
		e := &st.Index[i]
		e.Vertical = verticals.Vertical(r.sym())
		e.Country = market.Country(r.sym())
		e.Kw = r.int32()
		e.Broad = r.bool()
		e.Refs = r.int32()
	}
	st.RefAd = readInts[int32](r)
	st.RefBid = readInts[int32](r)
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return st, nil
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

// next consumes n bytes; count has already checked they are there.
func (r *colReader) next(n int) []byte {
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

// bytes reads a length-prefixed byte string, aliasing the input.
func (r *colReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("string of %d bytes, %d left", n, len(r.b))
		return nil
	}
	return r.next(int(n))
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

// readInts reads a varint column. It is the decoder's inner loop over
// the bid and reference columns, so it decodes in place rather than
// through the per-value readers.
func readInts[T int | int32](r *colReader) []T {
	col := make([]T, r.count(1))
	for i := range col {
		v, n := binary.Varint(r.b)
		if n <= 0 {
			r.fail("bad varint")
			return nil
		}
		if int64(T(v)) != v {
			r.fail("%d overflows %T", v, T(0))
			return nil
		}
		col[i] = T(v)
		r.b = r.b[n:]
	}
	return col
}

func readFloats(r *colReader) []float64 {
	col := make([]float64, r.count(8))
	for i := range col {
		col[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:]))
	}
	r.b = r.b[8*len(col):]
	return col
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
	a.Status = AccountStatus(r.byte())
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
