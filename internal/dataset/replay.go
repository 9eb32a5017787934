package dataset

import (
	"repro/internal/eventlog"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/simclock"
)

// Replayer folds an event stream into a Collector. It is the one writer
// of the campaign, bid and detection folds: the simulator attaches a
// Replayer as the event sink of its agents runtime, detection pipeline
// and platform, so a live run and a replay of its log fold the same
// events through the same code. Impressions are the one fold a live run
// makes elsewhere (the sharded serving fold, dataset.ShardAccumulator);
// on replay they fold here, and the round-trip test in this package pins
// that both produce the same digests.
//
// Every fold is a per-account sum or histogram increment, so the
// aggregates do not depend on how events of different accounts
// interleave, only on each account's own order. Only the detection
// *record list* retains stream order.
//
// Replayer implements eventlog.Sink. Forward, when non-nil, receives
// every event after it is folded, so a Replayer can sit in front of an
// event log.
type Replayer struct {
	col *Collector

	// Forward, when non-nil, receives each event after its fold.
	Forward eventlog.Sink

	// Skipped counts events with no Collector fold (account records live
	// in the platform table, not the collector).
	Skipped uint64
}

// NewReplayer wraps a collector.
func NewReplayer(col *Collector) *Replayer { return &Replayer{col: col} }

// Append folds one event, then forwards it. Unknown or non-aggregate
// event types are counted in Skipped, never an error: logs from newer
// writers replay what this consumer understands.
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
		r.col.Campaign(day, acct, ActionAdCreate)
	case eventlog.TypeAdModified:
		r.col.Campaign(day, acct, ActionAdModify)
	case eventlog.TypeBidPlaced:
		// A placed bid is both a keyword-creation campaign action and a
		// bid-book entry.
		r.col.Campaign(day, acct, ActionKwCreate)
		r.col.BidCreated(acct, platform.MatchType(ev.Match), ev.Amount)
	case eventlog.TypeBidModified:
		r.col.Campaign(day, acct, ActionKwModify)
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
	if r.Forward != nil {
		r.Forward.Append(ev)
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
