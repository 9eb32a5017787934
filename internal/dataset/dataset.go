// Package dataset materializes the three data sources of §3.1 for the
// measurement library:
//
//   - customer and ad records — held by the platform's account/ad tables;
//   - ad impression and click records — collected here as streaming
//     per-account aggregates (weekly activity series, per-measurement-window
//     engagement and competition splits, position histograms);
//   - fraud detection records — the shutdown/rejection actions taken by the
//     detection pipeline, with timestamps, stages and reasons.
//
// Impression records are aggregated online rather than logged raw: a
// full-scale run serves tens of millions of auctions, and every analysis in
// the paper consumes either per-account aggregates or global counters, so
// the collector folds each impression into exactly the shapes the
// experiments read. The one analysis dimension that would normally require
// joining future labels onto past impressions — "was this impression shown
// alongside an ad from an (eventually detected) fraudulent account?" — is
// resolved with agent ground truth at collection time; §3.2 of the paper
// argues detection is near-complete for active fraud given enough time,
// which is also true of our pipeline by construction (see DESIGN.md).
package dataset

import (
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/simclock"
	"repro/internal/verticals"
)

// WeekAgg is one week of activity for one account.
type WeekAgg struct {
	Week        int32
	Impressions int64
	Clicks      int64
	Spend       float64
}

// WindowAgg accumulates one account's activity within one named
// measurement window, split by fraud competition. "Influenced" counters
// cover impressions shown on pages that also showed at least one ad from a
// fraudulent account other than the subject; "organic" is the remainder
// (total minus influenced).
type WindowAgg struct {
	Impressions int64
	Clicks      int64
	Spend       float64

	InflImpressions int64
	InflClicks      int64
	InflSpend       float64

	// PosOrganic / PosInfluenced histogram first-page ad positions
	// (1-based; index 0 = position 1; the last bucket absorbs deeper
	// positions).
	PosOrganic    [20]uint32
	PosInfluenced [20]uint32

	// Campaign management action counts within the window (Figure 7).
	AdsCreated  int32
	AdsModified int32
	KwCreated   int32
	KwModified  int32
}

// OrganicImpressions returns impressions not influenced by fraud.
func (w *WindowAgg) OrganicImpressions() int64 { return w.Impressions - w.InflImpressions }

// OrganicClicks returns clicks not influenced by fraud.
func (w *WindowAgg) OrganicClicks() int64 { return w.Clicks - w.InflClicks }

// OrganicSpend returns spend not influenced by fraud.
func (w *WindowAgg) OrganicSpend() float64 { return w.Spend - w.InflSpend }

// AccountAgg is the full aggregate state for one account.
type AccountAgg struct {
	Weeks   []WeekAgg
	Windows []*WindowAgg // parallel to the collector's named windows; nil until touched

	// BidCount / BidSum tally keyword bids by match type over the account
	// lifetime (Figure 9, Table 4 denominators).
	BidCount [3]int64
	BidSum   [3]float64

	// ClicksByMatch tallies received clicks by the matched bid's type
	// (Table 4).
	ClicksByMatch [3]int64

	// MonthVerticalSpend maps packed (monthIndex, verticalIndex) keys to
	// spend, for the vertical time series of Figure 8. Allocated lazily.
	MonthVerticalSpend map[int32]float64
}

func (a *AccountAgg) week(w int32) *WeekAgg {
	if n := len(a.Weeks); n > 0 && a.Weeks[n-1].Week == w {
		return &a.Weeks[n-1]
	}
	a.Weeks = append(a.Weeks, WeekAgg{Week: w})
	return &a.Weeks[len(a.Weeks)-1]
}

// PackMonthVertical packs a month index and vertical index into one key.
func PackMonthVertical(month, vertical int) int32 {
	return int32(month)<<8 | int32(vertical)
}

// UnpackMonthVertical inverts PackMonthVertical.
func UnpackMonthVertical(key int32) (month, vertical int) {
	return int(key >> 8), int(key & 0xff)
}

// DetectionStage identifies which pipeline stage produced a detection.
type DetectionStage uint8

// Detection stages.
const (
	StageScreening DetectionStage = iota // rejected before approval
	StagePayment
	StageRateAnomaly
	StageBlacklist
	StageComplaint
	StagePolicy
	StageManualReview
)

// String returns the stage name.
func (s DetectionStage) String() string {
	switch s {
	case StageScreening:
		return "screening"
	case StagePayment:
		return "payment"
	case StageRateAnomaly:
		return "rate-anomaly"
	case StageBlacklist:
		return "blacklist"
	case StageComplaint:
		return "complaint"
	case StagePolicy:
		return "policy"
	case StageManualReview:
		return "manual-review"
	default:
		return "unknown"
	}
}

// DetectionRecord is one enforcement action: an account rejection or
// shutdown. This is the paper's "fraud detection records" dataset.
type DetectionRecord struct {
	Account platform.AccountID
	At      simclock.Stamp
	Stage   DetectionStage
	Reason  string
}

// Collector accumulates everything the experiments read.
type Collector struct {
	windows []simclock.NamedWindow

	accounts []*AccountAgg // indexed by AccountID; grown on demand

	detections []DetectionRecord
	// detectionAt[id] is the stamp of the account's (first) detection, or
	// platform.NoStamp.
	detectionAt []simclock.Stamp

	// Global click counters over the sample window (Tables 3 and 4): by
	// country and by match type, split fraud / non-fraud by ground truth.
	sampleWindow       simclock.Window
	clicksByCountry    map[market.Country]*FraudSplit
	clicksByMatch      [3]FraudSplit
	fraudClicksByMonth map[int]float64 // total fraud clicks per month (context)

	numVerticals int
}

// FraudSplit is a (fraud, nonfraud) pair of counters.
type FraudSplit struct {
	Fraud    int64
	Nonfraud int64
}

// Total returns the combined count.
func (f FraudSplit) Total() int64 { return f.Fraud + f.Nonfraud }

// NewCollector returns a collector tracking the given named measurement
// windows for per-account aggregates and the given sample window for the
// global Tables 3/4 counters.
func NewCollector(windows []simclock.NamedWindow, sampleWindow simclock.Window) *Collector {
	return &Collector{
		windows:            windows,
		sampleWindow:       sampleWindow,
		clicksByCountry:    make(map[market.Country]*FraudSplit),
		fraudClicksByMonth: make(map[int]float64),
		numVerticals:       len(verticals.All()),
	}
}

// Windows returns the tracked named windows in order.
func (c *Collector) Windows() []simclock.NamedWindow { return c.windows }

// agg returns the aggregate record for an account, growing the table as
// account IDs are issued densely by the platform.
func (c *Collector) agg(id platform.AccountID) *AccountAgg {
	for int(id) >= len(c.accounts) {
		c.accounts = append(c.accounts, nil)
		c.detectionAt = append(c.detectionAt, platform.NoStamp)
	}
	if c.accounts[id] == nil {
		c.accounts[id] = &AccountAgg{}
	}
	return c.accounts[id]
}

// NumTracked returns the size of the account aggregate table (one past
// the highest account ID that ever produced a collected event).
func (c *Collector) NumTracked() int { return len(c.accounts) }

// Agg returns the account's aggregate record, or nil if it never produced
// any collected event.
func (c *Collector) Agg(id platform.AccountID) *AccountAgg {
	if int(id) >= len(c.accounts) {
		return nil
	}
	return c.accounts[id]
}

// WindowAgg returns the account's aggregate for window index wi, or nil.
func (c *Collector) WindowAgg(id platform.AccountID, wi int) *WindowAgg {
	a := c.Agg(id)
	if a == nil || wi < 0 || wi >= len(a.Windows) {
		return nil
	}
	return a.Windows[wi]
}

// activeWindow returns the account's aggregate for named window i,
// created on first touch, or nil when day falls outside that window.
// Folds call it for each window index in turn, so a fold allocates
// nothing once the account's windows exist.
func (c *Collector) activeWindow(a *AccountAgg, i int, day simclock.Day) *WindowAgg {
	if !c.windows[i].Window.Contains(day) {
		return nil
	}
	for len(a.Windows) < len(c.windows) {
		a.Windows = append(a.Windows, nil)
	}
	if a.Windows[i] == nil {
		a.Windows[i] = &WindowAgg{}
	}
	return a.Windows[i]
}

// Impression folds one served placement into the account's aggregates.
//
//	day        — the day of the impression
//	acct       — the advertiser whose ad was shown (fraud = ground truth)
//	vertical   — the ad's vertical index
//	country    — the query market
//	position   — 1-based ad position on the page
//	match      — the matched bid's type
//	fraudComp  — another fraud advertiser's ad was on the same page
//	clicked    — the user clicked
//	price      — the billed CPC if clicked, else 0
//
// The fold is split into two lanes shared with the sharded serving path
// (see shard.go): an impression lane of pure counter increments, which
// commute and can therefore be pre-summed per shard and merged at a day
// barrier, and a click lane carrying every float accumulation (spend),
// which the engine applies strictly in global click order so that
// floating-point addition order — and with it the canonical digests — is
// that of folding the impressions one at a time, as a log replay does.
func (c *Collector) Impression(day simclock.Day, acct platform.AccountID, fraud bool,
	vertical int, country market.Country, position int, match platform.MatchType,
	fraudComp, clicked bool, price float64) {

	a := c.agg(acct)
	a.week(int32(day.Week())).Impressions++
	for i := range c.windows {
		w := c.activeWindow(a, i, day)
		if w == nil {
			continue
		}
		w.Impressions++
		pos := posBucket(position)
		if fraudComp {
			w.InflImpressions++
			w.PosInfluenced[pos]++
		} else {
			w.PosOrganic[pos]++
		}
	}
	if clicked {
		c.clickFold(a, day, fraud, vertical, country, match, fraudComp, price)
	}
}

// posBucket maps a 1-based page position onto the histogram bucket index.
func posBucket(position int) int {
	pos := position - 1
	if pos >= posBuckets {
		pos = posBuckets - 1
	}
	return pos
}

const posBuckets = 20 // len(WindowAgg.PosOrganic)

// clickFold is the click lane of the impression fold: everything that
// only happens on a clicked impression, including every float (spend)
// accumulation. Sharded serving calls it through ApplyClick in global
// click order.
func (c *Collector) clickFold(a *AccountAgg, day simclock.Day, fraud bool,
	vertical int, country market.Country, match platform.MatchType,
	fraudComp bool, price float64) {

	wk := a.week(int32(day.Week()))
	wk.Clicks++
	wk.Spend += price

	for i := range c.windows {
		w := c.activeWindow(a, i, day)
		if w == nil {
			continue
		}
		w.Clicks++
		w.Spend += price
		if fraudComp {
			w.InflClicks++
			w.InflSpend += price
		}
	}

	a.ClicksByMatch[match]++
	if fraud {
		c.fraudClicksByMonth[day.MonthIndex()] += 1
		if a.MonthVerticalSpend == nil {
			a.MonthVerticalSpend = make(map[int32]float64, 4)
		}
		a.MonthVerticalSpend[PackMonthVertical(day.MonthIndex(), vertical)] += price
	}
	if c.sampleWindow.Contains(day) {
		fs := c.clicksByCountry[country]
		if fs == nil {
			fs = &FraudSplit{}
			c.clicksByCountry[country] = fs
		}
		if fraud {
			fs.Fraud++
			c.clicksByMatch[match].Fraud++
		} else {
			fs.Nonfraud++
			c.clicksByMatch[match].Nonfraud++
		}
	}
}

// CampaignAction records a campaign-management action for Figure 7.
type CampaignAction uint8

// Campaign action kinds.
const (
	ActionAdCreate CampaignAction = iota
	ActionAdModify
	ActionKwCreate
	ActionKwModify
)

// Campaign folds one campaign-management action into the per-window
// counts.
func (c *Collector) Campaign(day simclock.Day, acct platform.AccountID, kind CampaignAction) {
	a := c.agg(acct)
	for i := range c.windows {
		w := c.activeWindow(a, i, day)
		if w == nil {
			continue
		}
		switch kind {
		case ActionAdCreate:
			w.AdsCreated++
		case ActionAdModify:
			w.AdsModified++
		case ActionKwCreate:
			w.KwCreated++
		case ActionKwModify:
			w.KwModified++
		}
	}
}

// BidCreated records a keyword bid for the match-mix aggregates.
func (c *Collector) BidCreated(acct platform.AccountID, match platform.MatchType, amount float64) {
	a := c.agg(acct)
	a.BidCount[match]++
	a.BidSum[match] += amount
}

// Detection appends a fraud-detection record.
func (c *Collector) Detection(rec DetectionRecord) {
	c.agg(rec.Account) // ensure tables are grown
	if c.detectionAt[rec.Account] == platform.NoStamp {
		c.detectionAt[rec.Account] = rec.At
	}
	c.detections = append(c.detections, rec)
}

// Detections returns all detection records in collection order.
func (c *Collector) Detections() []DetectionRecord { return c.detections }

// ShutdownsByStage counts the detection records by stage; a stage with
// no record has no entry.
func (c *Collector) ShutdownsByStage() map[DetectionStage]int {
	n := make(map[DetectionStage]int)
	for _, rec := range c.detections {
		n[rec.Stage]++
	}
	return n
}

// DetectedAt returns the stamp of the account's first detection and
// whether one exists.
func (c *Collector) DetectedAt(id platform.AccountID) (simclock.Stamp, bool) {
	if int(id) >= len(c.detectionAt) {
		return platform.NoStamp, false
	}
	s := c.detectionAt[id]
	return s, s != platform.NoStamp
}

// ClicksByCountry returns the sample-window click counters per country.
func (c *Collector) ClicksByCountry() map[market.Country]*FraudSplit { return c.clicksByCountry }

// ClicksByMatch returns the sample-window click counters per match type.
func (c *Collector) ClicksByMatch() [3]FraudSplit { return c.clicksByMatch }
