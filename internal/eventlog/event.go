// Package eventlog is the append-only record-stream substrate for the
// reproduction: the §3.1 datasets — customer records, impression/click
// records, and fraud-detection records — expressed as a typed event
// stream with a compact binary encoding, a segmented append-only writer,
// and a streaming reader with time-window and event-type filtering.
//
// The in-memory dataset.Collector folds records into aggregates online,
// which bounds analysis to what was anticipated before the run. An event
// log lifts that bound: the simulator (and the live adserver) emit every
// record through a Sink, and a consumer reads them back later. Inside a
// simulation the records meet the Collector on the same path: the
// agents, detection and platform emit into a dataset.Replayer, which
// folds campaign, bid and detection records and forwards every record
// to the run's log; impressions fold in the serving engine's shards and
// go to the log directly. Replaying the log through a Replayer therefore
// rebuilds the Collector's aggregates byte for byte.
//
// Determinism: the simulation emits events from its single-goroutine
// loop, interning assigns string IDs in first-seen order, and no
// wall-clock state enters the encoding, so a same-seed run writes a
// byte-identical log (pinned by the determinism suite in internal/sim).
//
// The package depends only on internal/simclock; platform, sim and
// dataset layer on top of it, which is what lets internal/platform emit
// events without an import cycle. Event fields are therefore primitives
// (int32 account IDs, string countries, uint8 stages) rather than the
// richer types of the packages above.
package eventlog

import "fmt"

// Type identifies an event's record schema.
type Type uint8

// Event types. The numbering is part of the on-disk format: never
// reorder or reuse values, only append.
const (
	// TypeAccountCreated is one customer record: an advertiser opened an
	// account (platform.Register). At carries the sub-day stamp;
	// Country, Vertical, N (actor generation) and the fraud/stolen flags
	// mirror the registration request.
	TypeAccountCreated Type = iota + 1
	// TypeReregistration marks an account that is a shut-down fraudulent
	// actor's return (generation > 0); N is the generation.
	TypeReregistration
	// TypeAdCreated is one campaign action: a new ad was posted.
	// Vertical is the ad's vertical index.
	TypeAdCreated
	// TypeAdModified is a creative modification on an existing ad.
	TypeAdModified
	// TypeBidPlaced is one keyword bid: Match is the match type and
	// Amount the normalized max CPC (US default bid = 1.0).
	TypeBidPlaced
	// TypeBidModified is a max-bid modification on an existing bid.
	TypeBidModified
	// TypeImpression is one served ad placement: Vertical, Country,
	// Position, Match, the fraud/competition/clicked flags, and — when
	// clicked — Amount, the billed CPC.
	TypeImpression
	// TypeDetection is one fraud-detection record: an enforcement action
	// (rejection or shutdown) with sub-day stamp At, pipeline Stage and
	// free-text Reason.
	TypeDetection
	// Value 9 is retired and must never be reused: it was TypeDayEnd, the
	// day-barrier marker of the multi-process shard cluster's per-shard
	// logs, and a log that still carries one is rejected as an unknown
	// type.

	numTypes
)

// typeNames is indexed by Type.
var typeNames = [numTypes]string{
	TypeAccountCreated: "account-created",
	TypeReregistration: "reregistration",
	TypeAdCreated:      "ad-created",
	TypeAdModified:     "ad-modified",
	TypeBidPlaced:      "bid-placed",
	TypeBidModified:    "bid-modified",
	TypeImpression:     "impression",
	TypeDetection:      "detection",
}

// String returns the kebab-case name of the type.
func (t Type) String() string {
	if t > 0 && t < numTypes {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Types lists every defined event type in declaration order.
func Types() []Type {
	out := make([]Type, 0, numTypes-1)
	for t := Type(1); t < numTypes; t++ {
		out = append(out, t)
	}
	return out
}

// ParseType resolves a type name (as produced by String) back to its
// Type.
func ParseType(s string) (Type, bool) {
	for t := Type(1); t < numTypes; t++ {
		if typeNames[t] == s {
			return t, true
		}
	}
	return 0, false
}

// Flag bits carried by Event.Flags.
const (
	// FlagFraud marks records belonging to a fraudulent account (ground
	// truth at emission time).
	FlagFraud uint8 = 1 << iota
	// FlagClicked marks impressions the user clicked.
	FlagClicked
	// FlagFraudComp marks impressions shown on a page that also showed
	// another fraudulent account's ad.
	FlagFraudComp
	// FlagStolenPayment marks accounts registered with an illegitimate
	// payment instrument.
	FlagStolenPayment
)

// Event is one log record. Which fields are meaningful (and encoded)
// depends on Type; unencoded fields decode as zero values. Day is set on
// every event and is the unit of time-window filtering.
type Event struct {
	Type Type
	// Day is the simulated day of the event. Warmup activity before the
	// study epoch carries negative days.
	Day int32
	// Account is the platform-issued account ID the record belongs to.
	Account int32
	// At is the sub-day stamp for account and detection records.
	At float64
	// Vertical is a verticals.All() index, or 0 when not applicable.
	Vertical int32
	// Country is the market code (interned in the encoding).
	Country string
	// Position is the 1-based ad position of an impression.
	Position int32
	// Match is the matched/placed bid's platform.MatchType.
	Match uint8
	// Stage is the dataset.DetectionStage of a detection record.
	Stage uint8
	// Flags holds the Flag* bits.
	Flags uint8
	// Amount is the billed CPC (impressions, when clicked) or the
	// normalized max bid (bid records).
	Amount float64
	// N is a small count: actor generation on account records.
	N int32
	// Reason is the enforcement reason of a detection record (interned).
	Reason string
}
