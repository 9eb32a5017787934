package testutil

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Digest is a compact fingerprint of one completed simulation: one hash
// per dataset (§3.1's customer, impression/click, and detection records,
// plus billing) and the headline counters in the clear. Two runs are
// behaviorally identical iff their digests are byte-identical; the
// golden regression tests pin these values under testdata/.
type Digest struct {
	// Fingerprint combines every dataset hash and the counters.
	Fingerprint string `json:"fingerprint"`

	Accounts   DatasetDigest `json:"accounts"`
	Activity   DatasetDigest `json:"activity"`
	Windows    DatasetDigest `json:"windows"`
	Clicks     DatasetDigest `json:"clicks"`
	Billing    DatasetDigest `json:"billing"`
	Detections DatasetDigest `json:"detections"`

	Counters Counters `json:"counters"`
}

// DatasetDigest is the fingerprint of one dataset: a record count (so a
// drifting digest immediately shows whether volume changed) and a
// truncated SHA-256 over the dataset's canonical encoding.
type DatasetDigest struct {
	Records int    `json:"records"`
	SHA256  string `json:"sha256"`
}

// Counters mirrors sim.Result's headline counters with stable JSON
// encoding (ShutdownsByStage keyed by stage name, which encoding/json
// sorts).
type Counters struct {
	Registrations      int            `json:"registrations"`
	FraudRegistrations int            `json:"fraudRegistrations"`
	Compromises        int            `json:"compromises"`
	Auctions           int64          `json:"auctions"`
	Impressions        int64          `json:"impressions"`
	Clicks             int64          `json:"clicks"`
	FraudClicks        int64          `json:"fraudClicks"`
	Spend              string         `json:"spend"`
	FraudSpend         string         `json:"fraudSpend"`
	RevenueLost        string         `json:"revenueLost"`
	ShutdownsByStage   map[string]int `json:"shutdownsByStage"`
}

// canonFloat renders a float so that the exact bit pattern round-trips:
// any change in accumulation order or arithmetic shows up in the digest.
func canonFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// digestWriter accumulates one dataset's canonical stream.
type digestWriter struct {
	h       hash.Hash
	records int
}

func newDigestWriter() *digestWriter { return &digestWriter{h: sha256.New()} }

func (d *digestWriter) record(format string, args ...interface{}) {
	d.records++
	fmt.Fprintf(d.h, format, args...)
	d.h.Write([]byte{'\n'})
}

func (d *digestWriter) done() DatasetDigest {
	return DatasetDigest{
		Records: d.records,
		SHA256:  fmt.Sprintf("%x", d.h.Sum(nil))[:16],
	}
}

// CollectorDigestSet fingerprints the datasets a Collector holds: the
// two impression/click shapes, the sample-window click counters, and the
// detection records. It is the comparison unit for replay equivalence —
// a Collector rebuilt from an event log must produce the identical set.
type CollectorDigestSet struct {
	Activity   DatasetDigest `json:"activity"`
	Windows    DatasetDigest `json:"windows"`
	Clicks     DatasetDigest `json:"clicks"`
	Detections DatasetDigest `json:"detections"`
}

// CollectorDigests canonically encodes every dataset in col, walking the
// tables in account-ID / collection order so the result is fully
// deterministic and independent of map iteration order and GOMAXPROCS.
func CollectorDigests(col *dataset.Collector) CollectorDigestSet {
	// Impression/click records, first shape: per-account weekly activity.
	activity := newDigestWriter()
	// Impression/click records, second shape: per-window aggregates with
	// position histograms, competition splits, campaign actions and the
	// account's bid/click match mixes.
	windows := newDigestWriter()
	for id := 0; id < col.NumTracked(); id++ {
		agg := col.Agg(platform.AccountID(id))
		if agg == nil {
			continue
		}
		for _, wk := range agg.Weeks {
			activity.record("%d|%d|%d|%d|%s", id, wk.Week, wk.Impressions, wk.Clicks, canonFloat(wk.Spend))
		}
		for wi, w := range agg.Windows {
			if w == nil {
				continue
			}
			windows.record("%d|%d|%d|%d|%s|%d|%d|%s|%v|%v|%d|%d|%d|%d",
				id, wi, w.Impressions, w.Clicks, canonFloat(w.Spend),
				w.InflImpressions, w.InflClicks, canonFloat(w.InflSpend),
				w.PosOrganic, w.PosInfluenced,
				w.AdsCreated, w.AdsModified, w.KwCreated, w.KwModified)
		}
		if agg.BidCount != [3]int64{} || agg.ClicksByMatch != [3]int64{} {
			windows.record("%d|bids|%v|%s,%s,%s|%v", id, agg.BidCount,
				canonFloat(agg.BidSum[0]), canonFloat(agg.BidSum[1]), canonFloat(agg.BidSum[2]),
				agg.ClicksByMatch)
		}
		if len(agg.MonthVerticalSpend) > 0 {
			keys := make([]int, 0, len(agg.MonthVerticalSpend))
			for k := range agg.MonthVerticalSpend {
				keys = append(keys, int(k))
			}
			sort.Ints(keys)
			for _, k := range keys {
				windows.record("%d|mv|%d|%s", id, k, canonFloat(agg.MonthVerticalSpend[int32(k)]))
			}
		}
	}

	// Sample-window click counters (Tables 3/4).
	clicks := newDigestWriter()
	byCountry := col.ClicksByCountry()
	countries := make([]string, 0, len(byCountry))
	for c := range byCountry {
		countries = append(countries, string(c))
	}
	sort.Strings(countries)
	for _, c := range countries {
		fs := byCountry[market.Country(c)]
		clicks.record("country|%s|%d|%d", c, fs.Fraud, fs.Nonfraud)
	}
	for m, fs := range col.ClicksByMatch() {
		clicks.record("match|%d|%d|%d", m, fs.Fraud, fs.Nonfraud)
	}

	// Fraud detection records, in collection order.
	detections := newDigestWriter()
	for _, rec := range col.Detections() {
		detections.record("%d|%s|%s|%s", rec.Account, canonFloat(float64(rec.At)), rec.Stage, rec.Reason)
	}

	return CollectorDigestSet{
		Activity:   activity.done(),
		Windows:    windows.done(),
		Clicks:     clicks.done(),
		Detections: detections.done(),
	}
}

// DigestResult fingerprints a completed run's datasets. The collector
// tables go through CollectorDigests; the platform-held tables (accounts,
// billing) are encoded here. Everything walks in account-ID / collection
// order, so the digest is fully deterministic.
func DigestResult(res *sim.Result) Digest {
	p := res.Platform

	// Customer and ad records: the full account table.
	accounts := newDigestWriter()
	for _, a := range p.Accounts() {
		accounts.record("%d|%s|%s|%s|%s|%t|%t|%d|%s|%s|%s|%s|%s|%d|%d|%d|%d|%d|%d|%d|%s",
			a.ID, canonFloat(float64(a.Created)), a.Country, a.Language, a.Currency,
			a.Fraud, a.StolenPayment, a.Generation, a.PrimaryVertical, a.Status,
			canonFloat(float64(a.ShutdownAt)), a.ShutdownReason, canonFloat(float64(a.FirstAdAt)),
			a.AdsCreated, a.AdsModified, a.KeywordsCreated, a.KeywordsModified,
			len(a.Ads), a.Impressions, a.Clicks, canonFloat(a.Spend))
	}

	colSet := CollectorDigests(res.Collector)

	// Billing: each billed account's charges and uncollected part, then
	// the ledger's totals.
	billing := newDigestWriter()
	for _, a := range p.Accounts() {
		if a.Spend == 0 {
			continue
		}
		billing.record("%d|%s|%s", a.ID, canonFloat(a.Spend), canonFloat(a.Uncollected()))
	}
	ledger := p.Ledger()
	billing.record("totals|%s|%s", canonFloat(ledger.TotalBilled()), canonFloat(ledger.TotalLost()))

	d := Digest{
		Accounts:   accounts.done(),
		Activity:   colSet.Activity,
		Windows:    colSet.Windows,
		Clicks:     colSet.Clicks,
		Billing:    billing.done(),
		Detections: colSet.Detections,
		Counters:   CountersOf(res),
	}
	d.Fingerprint = fingerprint(d)
	return d
}

// CountersOf extracts the headline counters in stable form.
func CountersOf(res *sim.Result) Counters {
	stages := make(map[string]int, len(res.ShutdownsByStage))
	for st, n := range res.ShutdownsByStage {
		stages[st.String()] = n
	}
	return Counters{
		Registrations:      res.Registrations,
		FraudRegistrations: res.FraudRegistrations,
		Compromises:        res.Compromises,
		Auctions:           res.Auctions,
		Impressions:        res.Impressions,
		Clicks:             res.Clicks,
		FraudClicks:        res.FraudClicks,
		Spend:              canonFloat(res.Spend),
		FraudSpend:         canonFloat(res.FraudSpend),
		RevenueLost:        canonFloat(res.Platform.Ledger().TotalLost()),
		ShutdownsByStage:   stages,
	}
}

// fingerprint combines the dataset digests and counters into one value.
func fingerprint(d Digest) string {
	h := sha256.New()
	counters, _ := MarshalStable(d.Counters)
	fmt.Fprintf(h, "%s|%s|%s|%s|%s|%s|%s",
		d.Accounts.SHA256, d.Activity.SHA256, d.Windows.SHA256,
		d.Clicks.SHA256, d.Billing.SHA256, d.Detections.SHA256, counters)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
