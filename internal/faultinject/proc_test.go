package faultinject

import "testing"

// TestProcFaultsParseFormatRoundTrip pins the spec syntax: every clause
// parses to the documented field.
func TestProcFaultsParseFormatRoundTrip(t *testing.T) {
	cases := []struct {
		spec string
		want ProcFaults
	}{
		{"", ProcFaults{StallAtDay: -1}},
		{"kill@msg=7", ProcFaults{StallAtDay: -1, KillAtControlMin: 7, KillAtControlMax: 7}},
		{"kill@msg=3..9", ProcFaults{StallAtDay: -1, KillAtControlMin: 3, KillAtControlMax: 9}},
		{"mute-hb@4", ProcFaults{StallAtDay: -1, DropHeartbeatsAfter: 4}},
		{"stall@day=5", ProcFaults{StallAtDay: 5}},
		{
			"kill@msg=2..8,mute-hb@2,stall@day=3",
			ProcFaults{KillAtControlMin: 2, KillAtControlMax: 8, DropHeartbeatsAfter: 2, StallAtDay: 3},
		},
	}
	for _, c := range cases {
		got, err := ParseProcFaults(c.spec)
		if err != nil {
			t.Errorf("ParseProcFaults(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseProcFaults(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

// TestProcFaultsParseRejectsBadSpecs: malformed clauses are errors, not
// silently-zero profiles.
func TestProcFaultsParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"kill@msg=0",         // kill index is 1-based
		"kill@msg=9..3",      // inverted range
		"kill@msg=x",         // not a number
		"mute-hb@0",          // 1-based
		"stall@day=5:2s",     // a stall has no duration: it lasts until the supervisor acts
		"stall@day=-1",       // negative day
		"explode",            // unknown clause
		"kill@msg=3,bogus=1", // valid clause followed by junk
	} {
		if _, err := ParseProcFaults(spec); err == nil {
			t.Errorf("ParseProcFaults(%q) accepted a malformed spec", spec)
		}
	}
}

// TestProcKillPointSeededDeterminism: the kill-at-control-message index
// is a pure function of (seed, process name) — the property that makes
// a chaos run reproducible from its seed alone.
func TestProcKillPointSeededDeterminism(t *testing.T) {
	f, err := ParseProcFaults("kill@msg=5..50")
	if err != nil {
		t.Fatal(err)
	}
	a := New(123).Proc("shard-1", f)
	b := New(123).Proc("shard-1", f)
	if a.killAt != b.killAt {
		t.Errorf("same (seed, name) drew different kill points: %d vs %d", a.killAt, b.killAt)
	}
	if k := a.killAt; k < 5 || k > 50 {
		t.Errorf("kill point %d outside configured range [5, 50]", k)
	}

	// Distinct names and seeds must be able to draw distinct points —
	// check a spread rather than one pair to dodge collisions.
	distinct := map[int]bool{}
	for _, name := range []string{"shard-0", "shard-1", "shard-2", "shard-3", "shard-4"} {
		distinct[New(123).Proc(name, f).killAt] = true
	}
	if len(distinct) < 2 {
		t.Error("five process names all drew the same kill point; the draw ignores the name")
	}

	// Min == Max pins the exact message, no randomness involved.
	pin, _ := ParseProcFaults("kill@msg=7")
	if k := New(999).Proc("x", pin).killAt; k != 7 {
		t.Errorf("pinned kill point = %d, want 7", k)
	}

	// ControlMessage fires exactly once, at the drawn index.
	p := New(7).Proc("shard-2", pin)
	var fired []int
	for i := 1; i <= 20; i++ {
		if p.ControlMessage() {
			fired = append(fired, i)
		}
	}
	if len(fired) != 1 || fired[0] != 7 {
		t.Errorf("kill fired at messages %v, want exactly [7]", fired)
	}

	// No kill clause: never fires.
	none := New(7).Proc("shard-2", ProcFaults{StallAtDay: -1})
	for i := 0; i < 20; i++ {
		if none.ControlMessage() {
			t.Fatal("kill fired with no kill clause configured")
		}
	}
	if none.killAt != 0 {
		t.Errorf("no-kill profile reports kill point %d, want 0", none.killAt)
	}
}

// TestProcDropHeartbeatDeterminism: the i-th heartbeat's fate is a
// pure function of i — mute-hb keeps the first N and swallows the rest,
// and the zero profile swallows none.
func TestProcDropHeartbeatDeterminism(t *testing.T) {
	clean := New(42).Proc("shard-3", ProcFaults{StallAtDay: -1})
	for i := 0; i < 50; i++ {
		if clean.DropHeartbeat() {
			t.Fatal("zero profile dropped a heartbeat")
		}
	}

	mute, _ := ParseProcFaults("mute-hb@3")
	p := New(1).Proc("shard-0", mute)
	for i := 0; i < 10; i++ {
		dropped := p.DropHeartbeat()
		if want := i >= 3; dropped != want {
			t.Errorf("heartbeat %d: dropped=%v, want %v", i, dropped, want)
		}
	}
}

// TestProcStallBehavior: DayEnd wedges the worker only on the
// configured day, and only once, and Stalled() flips (and stays) true so
// the heartbeat path can go mute with it. How long the stall lasts is
// the worker's business: until its supervisor is gone.
func TestProcStallBehavior(t *testing.T) {
	f, err := ParseProcFaults("stall@day=5")
	if err != nil {
		t.Fatal(err)
	}
	p := New(11).Proc("shard-1", f)
	for day := 0; day < 5; day++ {
		if p.DayEnd(day) || p.Stalled() {
			t.Fatalf("stalled at day %d, before the configured day", day)
		}
	}
	if !p.DayEnd(5) {
		t.Fatal("no stall at the configured day")
	}
	if !p.Stalled() {
		t.Error("Stalled() false after the stall began")
	}
	if p.DayEnd(6) || p.DayEnd(5) {
		t.Error("stalled again after the configured day")
	}
	if !p.Stalled() {
		t.Error("Stalled() must latch true after the stall")
	}
}
