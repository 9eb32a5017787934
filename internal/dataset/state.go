package dataset

// Checkpoint support. CollectorState is the gob-friendly form of a
// Collector. It stores each fact once: the first-detection index is not
// saved but rebuilt by SetState from the detection records, with the rule
// Detection applies. Two encoding choices matter:
//
//   - gob refuses nil pointers inside slices, and both the account table
//     and each account's Windows slice use nil holes as "never touched"
//     markers — so both are encoded sparsely (only non-nil entries, with
//     the original lengths recorded so the holes come back).
//
//   - maps are flattened to key-sorted entry lists so the encoded
//     snapshot is byte-deterministic for a given state.

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/simclock"
)

// WindowSlot is one non-nil entry of an AccountAgg's Windows slice.
type WindowSlot struct {
	Index int32
	Agg   WindowAgg
}

// MonthVerticalEntry is one entry of an AccountAgg's MonthVerticalSpend
// map.
type MonthVerticalEntry struct {
	Key   int32
	Spend float64
}

// AccountAggState is the serializable form of one account's aggregates.
type AccountAggState struct {
	ID                 int32
	Weeks              []WeekAgg
	WindowsLen         int32
	Windows            []WindowSlot
	BidCount           [3]int64
	BidSum             [3]float64
	ClicksByMatch      [3]int64
	MonthVerticalSpend []MonthVerticalEntry
}

// CountryClicks is one entry of the per-country click counters.
type CountryClicks struct {
	Country market.Country
	Split   FraudSplit
}

// MonthClicks is one entry of the fraud-clicks-per-month counters.
type MonthClicks struct {
	Month  int
	Clicks float64
}

// CollectorState is the serializable state of a Collector. The window
// definitions themselves are configuration and are re-supplied to
// NewCollector on restore.
type CollectorState struct {
	NumAccounts int
	Accounts    []AccountAggState

	Detections []DetectionRecord

	ClicksByCountry    []CountryClicks
	ClicksByMatch      [3]FraudSplit
	FraudClicksByMonth []MonthClicks
}

// StateInto captures the collector's accumulated aggregates into st,
// reusing st's slices: a checkpoint writer keeps one CollectorState
// between saves. The result shares the week series and detection records
// with the collector.
func (c *Collector) StateInto(st *CollectorState) {
	accounts := st.Accounts[:0]
	*st = CollectorState{
		NumAccounts:        len(c.accounts),
		Detections:         c.detections,
		ClicksByCountry:    st.ClicksByCountry[:0],
		ClicksByMatch:      c.clicksByMatch,
		FraudClicksByMonth: st.FraudClicksByMonth[:0],
	}
	for id, a := range c.accounts {
		if a == nil {
			continue
		}
		// Reslicing within capacity hands this row the previous save's
		// Windows and MonthVerticalSpend backing arrays.
		accounts = slices.Grow(accounts, 1)[:len(accounts)+1]
		as := &accounts[len(accounts)-1]
		*as = AccountAggState{
			ID:                 int32(id),
			Weeks:              a.Weeks,
			WindowsLen:         int32(len(a.Windows)),
			Windows:            as.Windows[:0],
			BidCount:           a.BidCount,
			BidSum:             a.BidSum,
			ClicksByMatch:      a.ClicksByMatch,
			MonthVerticalSpend: as.MonthVerticalSpend[:0],
		}
		for wi, w := range a.Windows {
			if w != nil {
				as.Windows = append(as.Windows, WindowSlot{Index: int32(wi), Agg: *w})
			}
		}
		for k, v := range a.MonthVerticalSpend {
			as.MonthVerticalSpend = append(as.MonthVerticalSpend, MonthVerticalEntry{k, v})
		}
		slices.SortFunc(as.MonthVerticalSpend, func(a, b MonthVerticalEntry) int { return cmp.Compare(a.Key, b.Key) })
	}
	st.Accounts = accounts
	for ctry, fs := range c.clicksByCountry {
		st.ClicksByCountry = append(st.ClicksByCountry, CountryClicks{ctry, *fs})
	}
	slices.SortFunc(st.ClicksByCountry, func(a, b CountryClicks) int { return cmp.Compare(a.Country, b.Country) })
	for m, v := range c.fraudClicksByMonth {
		st.FraudClicksByMonth = append(st.FraudClicksByMonth, MonthClicks{m, v})
	}
	slices.SortFunc(st.FraudClicksByMonth, func(a, b MonthClicks) int { return cmp.Compare(a.Month, b.Month) })
}

// SetState restores aggregates captured by StateInto onto a collector
// built by NewCollector with the same window configuration. All indexes
// are bounds-checked so hostile snapshot bytes yield an error, never a
// panic.
func (c *Collector) SetState(st *CollectorState) error {
	if st == nil {
		return fmt.Errorf("dataset: nil collector state")
	}
	if st.NumAccounts < 0 {
		return fmt.Errorf("dataset: collector state tracks %d accounts", st.NumAccounts)
	}
	accounts := make([]*AccountAgg, st.NumAccounts)
	for _, as := range st.Accounts {
		if int(as.ID) < 0 || int(as.ID) >= st.NumAccounts {
			return fmt.Errorf("dataset: collector state account %d out of range [0, %d)", as.ID, st.NumAccounts)
		}
		if as.WindowsLen < 0 || int(as.WindowsLen) > len(c.windows) {
			return fmt.Errorf("dataset: collector state account %d has windows length %d (collector tracks %d)", as.ID, as.WindowsLen, len(c.windows))
		}
		a := &AccountAgg{
			Weeks:         as.Weeks,
			Windows:       make([]*WindowAgg, as.WindowsLen),
			BidCount:      as.BidCount,
			BidSum:        as.BidSum,
			ClicksByMatch: as.ClicksByMatch,
		}
		for _, ws := range as.Windows {
			if int(ws.Index) < 0 || int(ws.Index) >= int(as.WindowsLen) {
				return fmt.Errorf("dataset: collector state account %d has window slot %d outside length %d", as.ID, ws.Index, as.WindowsLen)
			}
			w := ws.Agg
			a.Windows[ws.Index] = &w
		}
		if len(as.MonthVerticalSpend) > 0 {
			a.MonthVerticalSpend = make(map[int32]float64, len(as.MonthVerticalSpend))
			for _, e := range as.MonthVerticalSpend {
				a.MonthVerticalSpend[e.Key] = e.Spend
			}
		}
		accounts[as.ID] = a
	}
	detectionAt := make([]simclock.Stamp, st.NumAccounts)
	for i := range detectionAt {
		detectionAt[i] = platform.NoStamp
	}
	for _, rec := range st.Detections {
		if rec.Account < 0 || int(rec.Account) >= st.NumAccounts {
			return fmt.Errorf("dataset: collector state detection of account %d out of range [0, %d)", rec.Account, st.NumAccounts)
		}
		if detectionAt[rec.Account] == platform.NoStamp {
			detectionAt[rec.Account] = rec.At
		}
	}
	c.accounts = accounts
	c.detections = st.Detections
	c.detectionAt = detectionAt
	c.clicksByMatch = st.ClicksByMatch
	c.clicksByCountry = make(map[market.Country]*FraudSplit, len(st.ClicksByCountry))
	for _, e := range st.ClicksByCountry {
		fs := e.Split
		c.clicksByCountry[e.Country] = &fs
	}
	c.fraudClicksByMonth = make(map[int]float64, len(st.FraudClicksByMonth))
	for _, e := range st.FraudClicksByMonth {
		c.fraudClicksByMonth[e.Month] = e.Clicks
	}
	return nil
}
