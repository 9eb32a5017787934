package dataset

import (
	"fmt"

	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/simclock"
)

// ShardAccumulator is one serving worker's private slice of a day's
// impression fold. Sharded serving (internal/sim) gives each worker its
// own accumulator so the hot loop never synchronizes; at the day barrier
// the engine folds every shard into the Collector in shard order.
//
// The accumulator carries only the impression lane of Collector.Impression
// — pure counter increments, which commute, so pre-summing them per shard
// and merging the sums is exactly equivalent to applying them one at a
// time. Clicks are NOT pre-summed: every click carries a float spend
// accumulation whose addition order is observable in the canonical
// digests, so workers record ClickRows in query order and the engine
// replays them through Collector.ApplyClick in global click order.
//
// An accumulator is reused across days: BeginDay resets it in O(accounts
// touched the previous day).
type ShardAccumulator struct {
	// Day-global counters (order-insensitive).
	Auctions    int64
	Impressions int64

	nWin  int    // active named windows on the current day
	stamp uint32 // day generation; partials with an older stamp are stale

	parts   []*accountPartial // dense by AccountID; nil until first touched
	touched []platform.AccountID
}

// accountPartial is one account's impression-lane sums for one shard-day.
type accountPartial struct {
	stamp uint32
	impr  int64 // impressions this shard-day (week series + platform counter)
	wins  []windowPartial
}

// windowPartial mirrors the per-window impression-lane fields of
// WindowAgg, indexed by active-window ordinal (not window index).
type windowPartial struct {
	Impr, Infl    int64
	PosOrganic    [posBuckets]uint32
	PosInfluenced [posBuckets]uint32
}

// ClickRow is one clicked impression, recorded by a worker in query order
// and applied by the engine in global click order. It carries exactly the
// inputs of the click lane of Collector.Impression plus what serving
// needs for billing and run totals (price, fraud flags).
type ClickRow struct {
	Account   platform.AccountID
	Vertical  int32
	Match     platform.MatchType
	Country   market.Country
	Fraud     bool
	FraudComp bool
	Price     float64
}

// BeginDay resets the accumulator for a new day with the given number of
// active named windows (Collector.ActiveWindowCount).
func (sa *ShardAccumulator) BeginDay(nWin int) {
	sa.Auctions = 0
	sa.Impressions = 0
	sa.nWin = nWin
	sa.stamp++
	sa.touched = sa.touched[:0]
}

// part returns the account's partial for the current day, resetting a
// stale one from an earlier day on first touch.
func (sa *ShardAccumulator) part(id platform.AccountID) *accountPartial {
	for int(id) >= len(sa.parts) {
		sa.parts = append(sa.parts, nil)
	}
	p := sa.parts[id]
	if p == nil {
		p = &accountPartial{}
		sa.parts[id] = p
	}
	if p.stamp != sa.stamp {
		p.stamp = sa.stamp
		p.impr = 0
		if cap(p.wins) < sa.nWin {
			p.wins = make([]windowPartial, sa.nWin)
		} else {
			p.wins = p.wins[:sa.nWin]
			for i := range p.wins {
				p.wins[i] = windowPartial{}
			}
		}
		sa.touched = append(sa.touched, id)
	}
	return p
}

// AddImpression folds one impression's counter increments. It mirrors
// the impression lane of Collector.Impression exactly: one week/lifetime
// impression, and per active window the impression count plus the
// organic/influenced position histogram split.
func (sa *ShardAccumulator) AddImpression(acct platform.AccountID, position int, fraudComp bool) {
	sa.Impressions++
	p := sa.part(acct)
	p.impr++
	pos := posBucket(position)
	for i := range p.wins {
		w := &p.wins[i]
		w.Impr++
		if fraudComp {
			w.Infl++
			w.PosInfluenced[pos]++
		} else {
			w.PosOrganic[pos]++
		}
	}
}

// AccountImpressions calls fn for every account the shard served this
// day, in first-touch order, with its impression count. The engine uses
// it to batch-apply platform impression counters at the day barrier.
func (sa *ShardAccumulator) AccountImpressions(fn func(platform.AccountID, int64)) {
	for _, id := range sa.touched {
		fn(id, sa.parts[id].impr)
	}
}

// ActiveWindowCount returns how many named windows contain the day —
// the window-ordinal width shards must accumulate under for that day.
func (c *Collector) ActiveWindowCount(day simclock.Day) int {
	n := 0
	for _, w := range c.windows {
		if w.Window.Contains(day) {
			n++
		}
	}
	return n
}

// MergeShard folds one shard's impression-lane sums into the collector.
// Every merged quantity is a plain sum, so merging shards in any order
// yields the same aggregates as the sequential fold; the engine still
// merges in shard order to keep the procedure canonical.
func (c *Collector) MergeShard(day simclock.Day, sa *ShardAccumulator) {
	week := int32(day.Week())
	if n := c.ActiveWindowCount(day); len(sa.touched) > 0 && n != sa.nWin {
		panic(fmt.Sprintf("dataset: shard accumulated %d windows for day %d, collector has %d active",
			sa.nWin, day, n))
	}
	for _, id := range sa.touched {
		p := sa.parts[id]
		a := c.agg(id)
		a.week(week).Impressions += p.impr
		j := 0 // active-window ordinal
		for i := range c.windows {
			w := c.activeWindow(a, i, day)
			if w == nil {
				continue
			}
			pw := &p.wins[j]
			j++
			w.Impressions += pw.Impr
			w.InflImpressions += pw.Infl
			for k := range pw.PosOrganic {
				w.PosOrganic[k] += pw.PosOrganic[k]
				w.PosInfluenced[k] += pw.PosInfluenced[k]
			}
		}
	}
}

// ApplyClick folds one clicked impression's click lane — week/window
// click counts and every spend accumulation. The engine calls it in
// global click order (shards in order, rows within a shard in query
// order), which makes float accumulation order that of folding the
// impressions one at a time.
func (c *Collector) ApplyClick(day simclock.Day, row ClickRow) {
	c.clickFold(c.agg(row.Account), day, row.Fraud, int(row.Vertical),
		row.Country, row.Match, row.FraudComp, row.Price)
}
