package sim

// The serving engine: the day's query → auction → click → billing loop,
// sharded across SetWorkers goroutines with byte-identical outcomes at any
// worker count.
//
// The determinism contract (DESIGN.md "Parallel serving") rests on three
// facts about a simulated day: campaign and account state is frozen while
// serving runs (arrivals, agent steps and detection all happen outside
// the serving phase), the query stream and the click stream are each one
// sequential RNG, and every order-sensitive accumulation is either a
// commutative integer count or a float sum applied at the day barrier in
// global query order. Concretely a day's serving runs five sub-phases:
//
//	A. take the day's queries as the agents phase drew them ahead
//	   (queryDraw in dayloop.go), one sequential RNG stream;
//	B. shard the query indices into contiguous blocks, one per worker;
//	   each worker builds its block's pages (clicks.PageBuilder:
//	   eligibility, auction, click probabilities) against the frozen
//	   index — through a per-worker page cache that lives one day — and
//	   records each query's click-RNG draw count;
//	C. derive each query's click-RNG substream sequentially from the
//	   master click stream (stats.SubStreams), which advances the master
//	   by the day's total draw count;
//	D. workers roll clicks for their queries from the private substreams
//	   and stage outcomes: commutative counters in a
//	   dataset.ShardAccumulator, clicks as ordered ClickRows, events in
//	   a per-worker buffer;
//	E. at the day barrier, the simulation goroutine folds every shard in
//	   shard order — which, because blocks are contiguous, is global
//	   query order: counter merges, then billing + spend + click folds
//	   row by row, then the event flush straight to Config.Events (the
//	   shards already folded these impressions, so they bypass the
//	   dataset.Replayer that folds every other record).
//
// One worker runs the same five sub-phases over a single block, so the
// worker count selects a fan-out, never an implementation (see the workers
// matrix in record_test.go).

import (
	"fmt"
	"sync"

	"repro/internal/clicks"
	"repro/internal/dataset"
	"repro/internal/eventlog"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/queries"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/verticals"
)

// pageKey identifies a query equivalence class: two queries with the same
// key see the same eligible bids and auction outcome within one served
// day, while the index is frozen. It packs (keyword, vertical, country,
// form) into one integer, so the page cache is a map the runtime hashes
// on its fast 64-bit path; the keyword's cluster is a function of
// vertical and keyword and needs no bits. checkPageKeyWidths proves
// every field fits its width, which makes two distinct classes sharing a
// key impossible.
type pageKey uint64

// pageKey field layout, low bits to high: keyword 32, vertical 16,
// country 8, form 8 (platform.QueryForm is a uint8).
const (
	keyKeywordBits  = 32
	keyVerticalBits = 16
	keyCountryBits  = 8

	keyVerticalShift = keyKeywordBits
	keyCountryShift  = keyVerticalShift + keyVerticalBits
	keyFormShift     = keyCountryShift + keyCountryBits
)

func makePageKey(q *queries.Query) pageKey {
	return pageKey(uint64(q.KeywordID) |
		uint64(q.VerticalIdx)<<keyVerticalShift |
		uint64(q.CountryIdx)<<keyCountryShift |
		uint64(q.Form)<<keyFormShift)
}

// checkPageKeyWidths reports whether keyword IDs below keywords, vertical
// indices below verticals and country indices below countries all fit
// their pageKey fields.
func checkPageKeyWidths(keywords, verticals, countries int) error {
	for _, f := range []struct {
		name    string
		n, bits int
	}{
		{"keywords per vertical", keywords, keyKeywordBits},
		{"verticals", verticals, keyVerticalBits},
		{"countries", countries, keyCountryBits},
	} {
		if f.n < 0 || uint64(f.n) > 1<<f.bits {
			return fmt.Errorf("sim: %d %s do not fit the page key's %d bits", f.n, f.name, f.bits)
		}
	}
	return nil
}

// pagePool recycles clicks.Page structs and their backing slices across
// days: pages live exactly as long as the cache that holds them, so when
// the cache is cleared at the start of a day the pool rewinds and that
// day's misses reuse the same storage instead of reallocating three
// slices per page.
type pagePool struct {
	chunks [][]clicks.Page
	used   int
}

const pageChunk = 512

// get hands out the next page slot; clicks.PageBuilder.Build overwrites
// whatever it held.
func (pp *pagePool) get() *clicks.Page {
	ci, pi := pp.used/pageChunk, pp.used%pageChunk
	if ci == len(pp.chunks) {
		pp.chunks = append(pp.chunks, make([]clicks.Page, pageChunk))
	}
	pp.used++
	return &pp.chunks[ci][pi]
}

// reset rewinds the pool; only safe when every page handed out is dead
// (i.e. together with clearing the page cache).
func (pp *pagePool) reset() { pp.used = 0 }

// maxPageEntries bounds one shard's cache; past it, pages are still
// computed but no longer retained. A full-scale day has ~15k distinct
// pages, so the bound only guards pathological configurations.
const maxPageEntries = 1 << 15

// servePage is one query's resolved page plus the day-dependent fraud
// count, which is never cached: compromises flip account fraud flags
// without touching the index, so fraud presence is recomputed live.
type servePage struct {
	pg         *clicks.Page
	fraudShown int32
}

// subEntry is one resolved (vertical, country) → posting-list handle in
// a shard's sublist cache.
type subEntry struct {
	country market.Country
	sl      platform.Sublists
}

// shard is one worker's private serving state.
type shard struct {
	// Page cache, valid for one served day: the agents phase edits the
	// index every night.
	cache map[pageKey]*clicks.Page
	pool  pagePool

	// Sublist cache, also one day's: the index's composite (vertical,
	// country) map key hashes two strings, so each shard resolves it once
	// per pair per day instead of once per query. Outer slice indexed by
	// vertical index; inner lists hold a handful of countries.
	subs [][]subEntry

	// Eligibility and auction scratch reused across queries.
	scr clicks.Scratch

	// Per-day staging, folded at the day barrier.
	acc    dataset.ShardAccumulator
	clicks []dataset.ClickRow
	events []eventlog.Event
	pages  []servePage
}

// serveEngine owns the worker shards, the page builder they share and
// the per-day substream tables. The day's queries are the Sim's
// (s.draw.qs, see queryDraw).
type serveEngine struct {
	shards []*shard
	pages  clicks.PageBuilder

	draws  []int32
	states []stats.RNGState
}

func newServeEngine(workers int) *serveEngine {
	e := &serveEngine{shards: make([]*shard, workers)}
	for i := range e.shards {
		e.shards[i] = &shard{
			cache: make(map[pageKey]*clicks.Page, 1024),
			subs:  make([][]subEntry, len(verticals.All())),
		}
	}
	return e
}

// fanOut splits [0, n) into w contiguous blocks — block order is index
// order — runs fn(k, lo, hi) for block k = [lo, hi) on a goroutine of its
// own, and waits for all of them. Serving's phases B and D fan out
// through it.
func fanOut(w, n int, fn func(k, lo, hi int)) {
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(k, k*n/w, (k+1)*n/w)
		}()
	}
	wg.Wait()
}

// beginDay starts a served day with an empty page cache, a rewound page
// pool and an empty sublist cache: no cache outlives the day it was
// filled in, since the index is edited between served days.
func (sh *shard) beginDay() {
	clear(sh.cache)
	sh.pool.reset()
	for i := range sh.subs {
		sh.subs[i] = sh.subs[i][:0]
	}
}

// sublists resolves the query's (vertical, country) posting-list handle
// through the shard's sublist cache.
func (sh *shard) sublists(s *Sim, q *queries.Query) platform.Sublists {
	row := sh.subs[q.VerticalIdx]
	for i := range row {
		if row[i].country == q.Country {
			return row[i].sl
		}
	}
	sl := s.p.Index().Sublists(q.Vertical, q.Country)
	sh.subs[q.VerticalIdx] = append(row, subEntry{q.Country, sl})
	return sl
}

// page resolves a query's page through the cache, building misses with
// the engine's page builder. Hot Zipf-head queries repeat heavily within a day while the index
// is frozen, so the hit path skips both the posting-list walk and the
// auction. Empty outcomes are cached too. live is the day's stamped
// account-liveness bitmap (platform.LiveSet).
func (sh *shard) page(s *Sim, q *queries.Query, live []bool) *clicks.Page {
	key := makePageKey(q)
	if pg, ok := sh.cache[key]; ok {
		return pg
	}
	pg := sh.pool.get()
	s.eng.pages.Build(pg, &sh.scr, sh.sublists(s, q), q, live)
	if len(sh.cache) < maxPageEntries {
		sh.cache[key] = pg
	}
	return pg
}

// serveQueries runs the day's query volume through the auction and click
// model; see the file comment for the A–E phase structure and why each
// phase preserves byte identity.
func (s *Sim) serveQueries(day simclock.Day) {
	if s.eng == nil {
		s.eng = newServeEngine(s.resolveWorkers())
	}
	e := s.eng
	n := s.cfg.QueriesPerDay

	// Phase A: the query stream is one sequential RNG, drawn up front by
	// the agents phase into s.draw.qs.
	if cap(e.draws) < n {
		e.draws = make([]int32, n)
	}
	e.draws = e.draws[:n]

	nWin := s.col.ActiveWindowCount(day)
	// Stamp the liveness bitmap on the simulation goroutine before the
	// fan-out; workers read it concurrently but never write.
	live := s.p.LiveSet()

	// Phase B: eligibility + auctions against the frozen index.
	e.pages = clicks.PageBuilder{Model: s.model, Auction: s.cfg.Auction, Platform: s.p}
	fanOut(len(e.shards), n, func(k, lo, hi int) { s.shardAuctions(k, lo, hi, nWin, live) })

	// Phase C: partition the master click stream by per-query draw
	// count; the master ends the day advanced by their sum.
	e.states = stats.SubStreams(s.clickRNG, e.draws, e.states[:0])

	// Phase D: click rolls and outcome staging from private substreams.
	fanOut(len(e.shards), n, func(k, lo, hi int) { s.shardClicks(day, k, lo, hi) })

	// Phase E: deterministic fold, shard by shard — global query order.
	for k := range e.shards {
		sh := e.shards[k]
		s.res.Auctions += sh.acc.Auctions
		s.res.Impressions += sh.acc.Impressions
		s.col.MergeShard(day, &sh.acc)
		sh.acc.AccountImpressions(s.p.CountImpressions)
		for i := range sh.clicks {
			row := &sh.clicks[i]
			s.p.Bill(row.Account, row.Price)
			s.res.Clicks++
			s.res.Spend += row.Price
			if row.Fraud {
				s.res.FraudClicks++
				s.res.FraudSpend += row.Price
			}
			s.col.ApplyClick(day, *row)
		}
		if s.cfg.Events != nil {
			eventlog.AppendAll(s.cfg.Events, sh.events)
		}
	}
}

// shardAuctions is phase B for worker k: resolve every query in its
// block [lo, hi) through the page cache and record its draw count. All
// writes are shard-private or to this block's slice of e.draws.
func (s *Sim) shardAuctions(k, lo, hi, nWin int, live []bool) {
	e := s.eng
	sh := e.shards[k]
	sh.beginDay()
	sh.acc.BeginDay(nWin)
	sh.clicks = sh.clicks[:0]
	sh.events = sh.events[:0]
	sh.pages = sh.pages[:0]
	for gi := lo; gi < hi; gi++ {
		pg := sh.page(s, &s.draw.qs[gi], live)
		sp := servePage{pg: pg}
		if len(pg.Placements) > 0 {
			sh.acc.Auctions++
			for _, a := range pg.Accts {
				if a.Fraud {
					sp.fraudShown++
				}
			}
		}
		e.draws[gi] = pg.Draws
		sh.pages = append(sh.pages, sp)
	}
}

// shardClicks is phase D for worker k: roll clicks for each query of its
// block [lo, hi) from the query's private substream and stage counter
// increments, click rows and events.
func (s *Sim) shardClicks(day simclock.Day, k, lo, hi int) {
	e := s.eng
	sh := e.shards[k]
	logging := s.cfg.Events != nil
	var rng stats.RNG
	for gi := lo; gi < hi; gi++ {
		sp := &sh.pages[gi-lo]
		pg := sp.pg
		if len(pg.Placements) == 0 {
			continue
		}
		q := &s.draw.qs[gi]
		rng.SetState(e.states[gi])
		country := string(q.Country)
		// Every eligible ad sits in the query's own (vertical, country)
		// posting group, so its vertical index is the query's.
		vi := int32(q.VerticalIdx)
		for pi := range pg.Placements {
			pl := &pg.Placements[pi]
			clicked := rng.Bool(pg.CPs[pi])
			acctID := pl.Ref.Ad.Account
			isFraud := pg.Accts[pi].Fraud
			fraudComp := sp.fraudShown > 0
			if isFraud {
				fraudComp = sp.fraudShown > 1
			}
			sh.acc.AddImpression(acctID, pl.Position, fraudComp)
			price := 0.0
			if clicked {
				price = pl.Price
				sh.clicks = append(sh.clicks, dataset.ClickRow{
					Account:   acctID,
					Vertical:  vi,
					Match:     pl.Ref.Bid.Match,
					Country:   q.Country,
					Fraud:     isFraud,
					FraudComp: fraudComp,
					Price:     price,
				})
			}
			if logging {
				var flags uint8
				if isFraud {
					flags |= eventlog.FlagFraud
				}
				if fraudComp {
					flags |= eventlog.FlagFraudComp
				}
				if clicked {
					flags |= eventlog.FlagClicked
				}
				sh.events = append(sh.events, eventlog.Event{
					Type:     eventlog.TypeImpression,
					Day:      int32(day),
					Account:  int32(acctID),
					Vertical: vi,
					Country:  country,
					Position: int32(pl.Position),
					Match:    uint8(pl.Ref.Bid.Match),
					Flags:    flags,
					Amount:   price,
				})
			}
		}
	}
}
