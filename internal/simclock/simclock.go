// Package simclock defines virtual time for the advertiser-fraud
// simulation. The paper reports on a two-year measurement span labeled
// 1/Y1 through 1/Y3; we model it with a simplified calendar of 30-day
// months and 360-day years, which keeps window arithmetic exact and makes
// the month labels on reproduced figures match the paper's axes.
//
// No component of the simulator consults wall-clock time; all timestamps
// are Day values (whole days since the simulation epoch) with fractional
// within-day offsets carried separately where sub-day resolution matters
// (account lifetimes in Figure 2 are measured in fractional days).
package simclock

import "fmt"

// Calendar constants for the simplified simulation calendar.
const (
	DaysPerWeek    = 7
	DaysPerMonth   = 30
	MonthsPerYear  = 12
	DaysPerYear    = DaysPerMonth * MonthsPerYear // 360
	DaysPerQuarter = DaysPerYear / 4              // 90
)

// Day is a number of whole days since the simulation epoch (1/Y1).
type Day int

// Horizon is the full simulated span: two years plus one month of
// run-out, mirroring the paper's 1/Y1 – 1/Y3 measurement range.
const Horizon Day = 2*DaysPerYear + DaysPerMonth

// Year returns the 1-based simulation year containing d.
func (d Day) Year() int { return int(d)/DaysPerYear + 1 }

// Month returns the 1-based month within the year containing d.
func (d Day) Month() int { return (int(d)%DaysPerYear)/DaysPerMonth + 1 }

// Week returns the 0-based week index containing d.
func (d Day) Week() int { return int(d) / DaysPerWeek }

// MonthIndex returns the 0-based absolute month index since the epoch.
func (d Day) MonthIndex() int { return int(d) / DaysPerMonth }

// Label renders d as the paper's axis notation, e.g. "7/Y1" for month 7 of
// year 1.
func (d Day) Label() string { return fmt.Sprintf("%d/Y%d", d.Month(), d.Year()) }

// MonthStart returns the first day of the 0-based absolute month index m.
func MonthStart(m int) Day { return Day(m * DaysPerMonth) }

// Window is a half-open interval of days [Start, End).
type Window struct {
	Start, End Day
}

// Contains reports whether d falls within the window.
func (w Window) Contains(d Day) bool { return d >= w.Start && d < w.End }

// String renders the window using month labels.
func (w Window) String() string {
	return fmt.Sprintf("[%s, %s)", w.Start.Label(), w.End.Label())
}

// Named measurement windows used throughout the paper's evaluation. The
// five periods of Figure 4 are Y1Q2, OctY1, Y2Q1, AprY2 and OctY2; the
// in-depth behavioral analyses (Figures 5–17) use Y1Q2.
var (
	// Y1Q2 is the second quarter of year 1.
	Y1Q2 = Window{Start: DaysPerQuarter, End: 2 * DaysPerQuarter}
	// OctY1 is month 10 of year 1.
	OctY1 = Window{Start: 9 * DaysPerMonth, End: 10 * DaysPerMonth}
	// Y2Q1 is the first quarter of year 2 (the techsupport quarter, §5.2.1).
	Y2Q1 = Window{Start: DaysPerYear, End: DaysPerYear + DaysPerQuarter}
	// AprY2 is month 4 of year 2.
	AprY2 = Window{Start: DaysPerYear + 3*DaysPerMonth, End: DaysPerYear + 4*DaysPerMonth}
	// OctY2 is month 10 of year 2.
	OctY2 = Window{Start: DaysPerYear + 9*DaysPerMonth, End: DaysPerYear + 10*DaysPerMonth}
	// Year1 and Year2 cover the two full study years.
	Year1 = Window{Start: 0, End: DaysPerYear}
	Year2 = Window{Start: DaysPerYear, End: 2 * DaysPerYear}
)

// Periods returns the five named windows of Figure 4 in chronological
// order, keyed by the labels the paper uses in its legends.
func Periods() []NamedWindow {
	return []NamedWindow{
		{Name: "Q2 Year 1", Window: Y1Q2},
		{Name: "Oct. Year 1", Window: OctY1},
		{Name: "Q1 Year 2", Window: Y2Q1},
		{Name: "Apr. Year 2", Window: AprY2},
		{Name: "Oct. Year 2", Window: OctY2},
	}
}

// NamedWindow pairs a window with its legend label.
type NamedWindow struct {
	Name   string
	Window Window
}

// Stamp is a point in simulated time with sub-day resolution, used where
// the paper measures lifetimes in hours (e.g. "most will be shut down
// within eight hours of beginning to post advertisements").
type Stamp float64

// StampAt builds a Stamp from a day and a fraction of that day in [0, 1).
func StampAt(d Day, frac float64) Stamp { return Stamp(float64(d) + frac) }

// Day returns the whole day containing the stamp.
func (s Stamp) Day() Day { return Day(s) }

// DaysSince returns the (fractional) number of days elapsed since t.
func (s Stamp) DaysSince(t Stamp) float64 { return float64(s - t) }
