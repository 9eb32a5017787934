// Package platform implements the search-ad network substrate: advertiser
// accounts and their lifecycle, campaigns, ads, keyword bids with the three
// Bing match types, the eligible-bid index the auction queries, and the
// billing ledger (including chargebacks from stolen payment instruments).
//
// It corresponds to the systems behind the paper's "customer and ad
// records" dataset (§3.1): "information on each advertiser (when their
// account was opened, market, language, home currency, etc.), every ad
// (title, description, display URL and destination URL), keywords bid on,
// bid types and maximum amounts."
package platform

import (
	"fmt"

	"repro/internal/adcopy"
	"repro/internal/market"
	"repro/internal/simclock"
	"repro/internal/verticals"
)

// AccountID identifies an advertiser account.
type AccountID int32

// AdID identifies an ad across the platform.
type AdID int32

// MatchType is a keyword bid's matching method (§5.3).
type MatchType uint8

// The three Bing match types.
const (
	// MatchExact requires the keywords to occur as the exact search query.
	MatchExact MatchType = iota
	// MatchPhrase requires the keywords in order, allowing surrounding
	// words.
	MatchPhrase
	// MatchBroad matches the keywords or any similar keywords, in any
	// order, regardless of other words in the query.
	MatchBroad
)

// MatchTypes lists the match types in canonical order.
var MatchTypes = []MatchType{MatchExact, MatchPhrase, MatchBroad}

// String returns the lower-case name of the match type.
func (m MatchType) String() string {
	switch m {
	case MatchExact:
		return "exact"
	case MatchPhrase:
		return "phrase"
	case MatchBroad:
		return "broad"
	default:
		return fmt.Sprintf("match(%d)", uint8(m))
	}
}

// AccountStatus tracks the account lifecycle.
type AccountStatus uint8

// Lifecycle states. Rejected accounts failed initial screening and never
// show an ad ("advertisers whose accounts have yet to be granted initial
// approval" are excluded from the paper's non-fraudulent population, §3.2).
const (
	StatusRegistered AccountStatus = iota
	StatusRejected
	StatusActive
	StatusShutdown
	// StatusClosed marks a voluntary exit: the advertiser wound down its
	// business. Closed accounts are not enforcement actions and never
	// carry detection records.
	StatusClosed
)

// String returns the lower-case name of the status.
func (s AccountStatus) String() string {
	switch s {
	case StatusRegistered:
		return "registered"
	case StatusRejected:
		return "rejected"
	case StatusActive:
		return "active"
	case StatusShutdown:
		return "shutdown"
	case StatusClosed:
		return "closed"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// NoStamp marks an unset timestamp field.
const NoStamp simclock.Stamp = -1

// Account is one advertiser account — "the unit of accountability" (§4.1).
type Account struct {
	ID       AccountID
	Created  simclock.Stamp
	Country  market.Country
	Language string
	Currency string

	// Fraud is ground truth: whether the account is operated by a
	// fraudulent agent. The measurement library never reads this field
	// directly for labeling; it uses detection records, mirroring the
	// paper's definition of 'fraudulent' as "those that Bing has shut
	// down" (§3.2). Ground truth exists only to evaluate detector quality.
	Fraud bool

	// PrimaryVertical is the account's main line of business.
	PrimaryVertical verticals.Vertical

	// StolenPayment marks fraud accounts using illegitimate payment
	// instruments; spend on these accounts is typically not billable and
	// eventually surfaces as chargebacks.
	StolenPayment bool

	// Generation counts the operating actor's previously shut-down
	// accounts (0 = first account). Latent actor knowledge recorded for
	// the recidivism characterization; the detection pipeline receives it
	// only through its own identity blacklists.
	Generation int

	Status AccountStatus
	// ShutdownAt is the end-of-life stamp for terminated accounts
	// (rejected, shut down, or voluntarily closed).
	ShutdownAt     simclock.Stamp
	ShutdownReason string

	// FirstAdAt is when the account created its first ad; NoStamp until
	// then. Figure 2 measures lifetimes from both Created and FirstAdAt.
	FirstAdAt simclock.Stamp

	Ads []*Ad

	// Rolling activity totals (maintained by the platform as clicks and
	// impressions are billed; the authoritative per-event record lives in
	// the dataset logs).
	Impressions int64
	Clicks      int64
	Spend       float64 // everything billed to the account

	// AdsCreated / AdsModified / KeywordsCreated / KeywordsModified count
	// campaign-management actions for Figure 7.
	AdsCreated       int
	AdsModified      int
	KeywordsCreated  int
	KeywordsModified int
}

// Alive reports whether the account can serve ads.
func (a *Account) Alive() bool { return a.Status == StatusActive }

// Uncollected returns the account's charges that will never be collected:
// all of its Spend if it pays with a stolen instrument, else none. It is
// the payment detector's chargeback exposure.
func (a *Account) Uncollected() float64 {
	if a.StolenPayment {
		return a.Spend
	}
	return 0
}

// LifetimeFromCreation returns the account's lifetime in fractional days
// from registration until shutdown, or until `now` if still alive.
func (a *Account) LifetimeFromCreation(now simclock.Stamp) float64 {
	end := now
	if a.Status == StatusShutdown {
		end = a.ShutdownAt
	}
	return end.DaysSince(a.Created)
}

// Ad is a single advertisement with its creative and keyword bids.
type Ad struct {
	ID       AdID
	Account  AccountID
	Vertical verticals.Vertical
	Target   market.Country
	Creative adcopy.Creative
	Created  simclock.Stamp
	Active   bool

	// Quality is the ad's intrinsic relevance/quality score in (0, 1],
	// the platform's estimate of how likely a user is to find the ad
	// relevant. It feeds the auction's rank score ("Ad performance, as
	// measured by CTR ... heavily influences whether an ad is shown at
	// all, as well as where the ad appears on the page" — §4.2) and the
	// click model's per-ad CTR.
	Quality float64

	Bids []*KeywordBid
}

// KeywordBid is one (keyword, match type, max bid) entry.
type KeywordBid struct {
	// KeywordID indexes the vertical's keyword universe.
	KeywordID int
	// Cluster is the keyword's similarity cluster within the universe.
	Cluster int
	Match   MatchType
	// MaxBid is the advertiser's maximum CPC, normalized so the US default
	// maximum bid is 1.0 (the normalization of Figure 9 d–f).
	MaxBid  float64
	Created simclock.Stamp
}
