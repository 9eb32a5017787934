package dataset

import (
	"repro/internal/eventlog"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/simclock"
)

// Replayer rebuilds a Collector's aggregates from an event log. Each
// event maps onto exactly the Collector mutation the simulator performed
// when it emitted the event, so replaying a run's log reproduces the
// in-memory Collector digest-for-digest (pinned by the round-trip test
// in this package).
//
// Replayer itself is order-insensitive across accounts: every fold it
// performs is a per-account sum or histogram increment, so logs merged
// from shards in any per-account-preserving interleaving produce the
// same aggregates. Only the detection *record list* retains stream
// order.
//
// Replayer implements eventlog.Sink, so it can terminate any sink chain
// — including replaying directly while a simulation runs.
type Replayer struct {
	col *Collector

	// Skipped counts events with no Collector fold (account records live
	// in the platform table, not the collector).
	Skipped uint64
}

// NewReplayer wraps a collector.
func NewReplayer(col *Collector) *Replayer { return &Replayer{col: col} }

// Append folds one event. Unknown or non-aggregate event types are
// counted in Skipped, never an error: logs from newer writers replay
// what this consumer understands.
func (r *Replayer) Append(ev eventlog.Event) {
	day := simclock.Day(ev.Day)
	acct := platform.AccountID(ev.Account)
	switch ev.Type {
	case eventlog.TypeImpression:
		r.col.Impression(day, acct, ev.Flags&eventlog.FlagFraud != 0,
			int(ev.Vertical), market.Country(ev.Country), int(ev.Position),
			platform.MatchType(ev.Match),
			ev.Flags&eventlog.FlagFraudComp != 0,
			ev.Flags&eventlog.FlagClicked != 0, ev.Amount)
	case eventlog.TypeAdCreated:
		r.col.Campaign(day, acct, ActionAdCreate, 1)
	case eventlog.TypeAdModified:
		r.col.Campaign(day, acct, ActionAdModify, 1)
	case eventlog.TypeBidPlaced:
		// A placed bid is both a keyword-creation campaign action and a
		// bid-book entry, exactly as the agent runtime records it.
		r.col.Campaign(day, acct, ActionKwCreate, 1)
		r.col.BidCreated(acct, platform.MatchType(ev.Match), ev.Amount)
	case eventlog.TypeBidModified:
		r.col.Campaign(day, acct, ActionKwModify, 1)
	case eventlog.TypeDetection:
		r.col.Detection(DetectionRecord{
			Account: acct,
			At:      simclock.Stamp(ev.At),
			Stage:   DetectionStage(ev.Stage),
			Reason:  ev.Reason,
		})
	default:
		r.Skipped++
	}
}

// ReplayDir streams a segmented log directory into a fresh Collector.
func ReplayDir(dir string, windows []simclock.NamedWindow, sampleWindow simclock.Window) (*Collector, error) {
	rep := NewReplayer(NewCollector(windows, sampleWindow))
	err := eventlog.ScanDir(dir, eventlog.Filter{}, func(ev *eventlog.Event) error {
		rep.Append(*ev)
		return nil
	})
	return rep.col, err
}
