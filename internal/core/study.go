// Package core is the paper's measurement methodology as a reusable
// library. Given the three datasets (customer/ad records via the platform,
// impression/click aggregates and fraud-detection records via the
// collector), it provides:
//
//   - fraud labeling exactly as §3.2 defines it: "our designation of
//     'fraudulent' advertisers are those that Bing has shut down", i.e.
//     labels come from detection records, never from simulation ground
//     truth;
//   - population enumeration over measurement windows;
//   - the eleven subset constructions of §3.3 (uniform, with-clicks,
//     spend-/volume-weighted, and the spend-/volume-/rate-matched
//     non-fraudulent comparison subsets);
//   - per-account metric extraction (activity rates, CTR, CPC, ad
//     position distributions, match-type mixes, competition exposure);
//   - in-window vs out-of-window activity attribution (Figure 3's 90-day
//     rule).
package core

import (
	"repro/internal/dataset"
	"repro/internal/platform"
	"repro/internal/simclock"
)

// Study binds the datasets of one simulated (or recorded) measurement
// span. All analyses hang off it.
type Study struct {
	P *platform.Platform
	C *dataset.Collector
	// Horizon is the end of the recorded span; open-ended lifetimes are
	// right-censored here.
	Horizon simclock.Day
}

// NewStudy constructs a study over a platform and collector.
func NewStudy(p *platform.Platform, c *dataset.Collector, horizon simclock.Day) *Study {
	return &Study{P: p, C: c, Horizon: horizon}
}

// Now returns the right-censoring stamp (end of the recorded span).
func (s *Study) Now() simclock.Stamp { return simclock.StampAt(s.Horizon, 0) }

// IsFraudulent implements the paper's labeling: an account is fraudulent
// iff enforcement shut it down (or rejected it), per its detection
// records. Legitimate accounts swept up by friendly fire are — as in the
// paper — mislabeled, and truly fraudulent accounts that evaded detection
// through the whole span are counted as non-fraudulent.
func (s *Study) IsFraudulent(id platform.AccountID) bool {
	_, ok := s.C.DetectedAt(id)
	return ok
}

// DetectedAt returns when the account was first detected, if ever.
func (s *Study) DetectedAt(id platform.AccountID) (simclock.Stamp, bool) {
	return s.C.DetectedAt(id)
}

// ActiveSpan returns the account's active period [from, to): approval
// (approximated by creation) until termination — enforcement shutdown or
// voluntary closure — or the horizon. ok is false for accounts that never
// activated.
func (s *Study) ActiveSpan(id platform.AccountID) (from, to simclock.Stamp, ok bool) {
	a := s.P.MustAccount(id)
	switch a.Status {
	case platform.StatusActive:
		return a.Created, s.Now(), true
	case platform.StatusShutdown, platform.StatusClosed:
		return a.Created, a.ShutdownAt, true
	default:
		return 0, 0, false
	}
}

// AliveDuring enumerates accounts whose active span overlaps the window —
// "advertisers active during the time period" (§3.3). The fraud argument
// filters by the §3.2 label.
func (s *Study) AliveDuring(w simclock.Window, fraud bool) []platform.AccountID {
	var out []platform.AccountID
	for _, a := range s.P.Accounts() {
		from, to, ok := s.ActiveSpan(a.ID)
		if !ok || s.IsFraudulent(a.ID) != fraud {
			continue
		}
		if float64(from) < float64(w.End) && float64(to) > float64(w.Start) {
			out = append(out, a.ID)
		}
	}
	return out
}

// WindowAgg returns the account's aggregate for the named-window index,
// or nil when the account had no collected activity there.
func (s *Study) WindowAgg(id platform.AccountID, wi int) *dataset.WindowAgg {
	return s.C.WindowAgg(id, wi)
}

// WindowClicks returns the account's clicks within window wi.
func (s *Study) WindowClicks(id platform.AccountID, wi int) int64 {
	if w := s.WindowAgg(id, wi); w != nil {
		return w.Clicks
	}
	return 0
}

// WindowSpend returns the account's spend within window wi.
func (s *Study) WindowSpend(id platform.AccountID, wi int) float64 {
	if w := s.WindowAgg(id, wi); w != nil {
		return w.Spend
	}
	return 0
}

// WindowImpressions returns the account's impressions within window wi.
func (s *Study) WindowImpressions(id platform.AccountID, wi int) int64 {
	if w := s.WindowAgg(id, wi); w != nil {
		return w.Impressions
	}
	return 0
}

// ActiveDaysIn returns the length of the account's potential activity
// period within the window, per §3.3.2: "from the later of the start of
// the measurement window and the account creation, until the earlier of
// the measurement window ending or the account being frozen."
func (s *Study) ActiveDaysIn(id platform.AccountID, w simclock.Window) float64 {
	from, to, ok := s.ActiveSpan(id)
	if !ok {
		return 0
	}
	lo := float64(w.Start)
	if float64(from) > lo {
		lo = float64(from)
	}
	hi := float64(w.End)
	if float64(to) < hi {
		hi = float64(to)
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// ClickRate returns the §3.3.2 activity rate: clicks received during the
// window divided by the account's potential activity period within it.
func (s *Study) ClickRate(id platform.AccountID, w simclock.Window, wi int) float64 {
	days := s.ActiveDaysIn(id, w)
	if days <= 0 {
		return 0
	}
	return float64(s.WindowClicks(id, wi)) / days
}

// ImpressionRate returns impressions per active day within the window
// (Figure 5's x-axis).
func (s *Study) ImpressionRate(id platform.AccountID, w simclock.Window, wi int) float64 {
	days := s.ActiveDaysIn(id, w)
	if days <= 0 {
		return 0
	}
	return float64(s.WindowImpressions(id, wi)) / days
}
