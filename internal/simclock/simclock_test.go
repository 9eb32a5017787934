package simclock

import "testing"

func TestDayCalendar(t *testing.T) {
	cases := []struct {
		d     Day
		year  int
		month int
		label string
	}{
		{0, 1, 1, "1/Y1"},
		{29, 1, 1, "1/Y1"},
		{30, 1, 2, "2/Y1"},
		{359, 1, 12, "12/Y1"},
		{360, 2, 1, "1/Y2"},
		{719, 2, 12, "12/Y2"},
		{720, 3, 1, "1/Y3"},
	}
	for _, c := range cases {
		if c.d.Year() != c.year || c.d.Month() != c.month || c.d.Label() != c.label {
			t.Fatalf("day %d: got %d/%d %q, want %d/%d %q",
				c.d, c.d.Month(), c.d.Year(), c.d.Label(), c.month, c.year, c.label)
		}
	}
}

func TestWeekAndMonthIndex(t *testing.T) {
	if Day(6).Week() != 0 || Day(7).Week() != 1 {
		t.Fatal("week boundaries")
	}
	if Day(59).MonthIndex() != 1 || Day(60).MonthIndex() != 2 {
		t.Fatal("month index boundaries")
	}
	if MonthStart(2) != 60 {
		t.Fatal("MonthStart")
	}
}

func TestWindowContains(t *testing.T) {
	w := Window{Start: 10, End: 20}
	if w.Contains(9) || !w.Contains(10) || !w.Contains(19) || w.Contains(20) {
		t.Fatal("half-open semantics violated")
	}
}

func TestNamedPeriodsOrderedAndDisjointFromEpoch(t *testing.T) {
	ps := Periods()
	if len(ps) != 5 {
		t.Fatalf("want 5 periods, got %d", len(ps))
	}
	prev := Day(-1)
	for _, p := range ps {
		if p.Window.Start <= prev {
			t.Fatalf("periods not strictly ordered at %s", p.Name)
		}
		if p.Window.End > Horizon {
			t.Fatalf("period %s exceeds horizon", p.Name)
		}
		prev = p.Window.Start
	}
	if ps[0].Window != Y1Q2 {
		t.Fatal("first period must be Y1Q2")
	}
}

func TestY2Q1IsTechsupportQuarter(t *testing.T) {
	if Y2Q1.Start != DaysPerYear || Y2Q1.End-Y2Q1.Start != DaysPerQuarter {
		t.Fatalf("Y2Q1 = %v", Y2Q1)
	}
}

func TestStamp(t *testing.T) {
	s := StampAt(5, 0.5)
	if s.Day() != 5 {
		t.Fatalf("Day() = %d", s.Day())
	}
	t0 := StampAt(3, 0.25)
	if d := s.DaysSince(t0); d != 2.25 {
		t.Fatalf("DaysSince = %v", d)
	}
}

func TestWindowString(t *testing.T) {
	if s := Y1Q2.String(); s != "[4/Y1, 7/Y1)" {
		t.Fatalf("Y1Q2.String() = %q", s)
	}
}
