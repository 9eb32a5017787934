package faultinject

import (
	"testing"
	"time"
)

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
		{"drop-hb=0.25", ProcFaults{StallAtDay: -1, DropHeartbeatRate: 0.25}},
		{"mute-hb@4", ProcFaults{StallAtDay: -1, DropHeartbeatsAfter: 4}},
		{"stall@day=5:2s", ProcFaults{StallAtDay: 5, StallFor: 2 * time.Second}},
		{"delay-exit=150ms", ProcFaults{StallAtDay: -1, DelayExit: 150 * time.Millisecond}},
		{
			"kill@msg=2..8,drop-hb=0.5,stall@day=3:1s,delay-exit=1s",
			ProcFaults{
				KillAtControlMin: 2, KillAtControlMax: 8,
				DropHeartbeatRate: 0.5,
				StallAtDay:        3, StallFor: time.Second,
				DelayExit: time.Second,
			},
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
		"drop-hb=1.5",        // probability out of range
		"drop-hb=-0.1",       // negative probability
		"mute-hb@0",          // 1-based
		"stall@day=5",        // missing duration
		"stall@day=5:0s",     // non-positive stall
		"stall@day=-1:2s",    // negative day
		"delay-exit=-1s",     // negative delay
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

// TestProcDropHeartbeatDeterminismAndMute: the i-th heartbeat's fate is
// a pure function of (seed, name, i); mute-hb keeps the first N and
// swallows the rest.
func TestProcDropHeartbeatDeterminism(t *testing.T) {
	f, _ := ParseProcFaults("drop-hb=0.4")
	const n = 200
	fate := func() []bool {
		p := New(42).Proc("shard-3", f)
		out := make([]bool, n)
		for i := range out {
			out[i] = p.DropHeartbeat()
		}
		return out
	}
	a, b := fate(), fate()
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("heartbeat %d fate differs between identical injectors", i)
		}
		if a[i] {
			drops++
		}
	}
	// 0.4 over 200 draws: anything near the rate confirms the coin is
	// real; exact value is pinned by determinism above.
	if drops < 40 || drops > 120 {
		t.Errorf("dropped %d/200 heartbeats at rate 0.4 — coin looks broken", drops)
	}

	// Rate zero never drops.
	clean := New(42).Proc("shard-3", ProcFaults{StallAtDay: -1})
	for i := 0; i < 50; i++ {
		if clean.DropHeartbeat() {
			t.Fatal("zero profile dropped a heartbeat")
		}
	}

	// mute-hb@N: first N pass, everything after is swallowed.
	mute, _ := ParseProcFaults("mute-hb@3")
	p := New(1).Proc("shard-0", mute)
	for i := 0; i < 10; i++ {
		dropped := p.DropHeartbeat()
		if want := i >= 3; dropped != want {
			t.Errorf("heartbeat %d: dropped=%v, want %v", i, dropped, want)
		}
	}
	if p.dropped != 7 {
		t.Errorf("dropped = %d, want 7", p.dropped)
	}
}

// TestProcStallBehavior: DayEnd wedges only on the configured day, for
// the configured duration, and Stalled() flips (and stays) true so the
// heartbeat path can go mute with it.
func TestProcStallBehavior(t *testing.T) {
	f, err := ParseProcFaults("stall@day=5:2s")
	if err != nil {
		t.Fatal(err)
	}
	p := New(11).Proc("shard-1", f)
	var slept []time.Duration
	p.sleep = func(d time.Duration) { slept = append(slept, d) }

	for day := 0; day < 5; day++ {
		p.DayEnd(day)
	}
	if len(slept) != 0 || p.Stalled() {
		t.Fatalf("stalled before the configured day (slept %v)", slept)
	}
	p.DayEnd(5)
	if len(slept) != 1 || slept[0] != 2*time.Second {
		t.Fatalf("stall slept %v, want [2s]", slept)
	}
	if !p.Stalled() {
		t.Error("Stalled() false during/after the stall")
	}
	p.DayEnd(6)
	if len(slept) != 1 {
		t.Error("stalled again on a non-configured day")
	}
	if !p.Stalled() {
		t.Error("Stalled() must latch true after the stall")
	}

	// Unconfigured duration defaults to 30s (longer than any sane
	// heartbeat timeout).
	d := New(11).Proc("shard-1", ProcFaults{StallAtDay: 2})
	var got time.Duration
	d.sleep = func(x time.Duration) { got = x }
	d.DayEnd(2)
	if got != 30*time.Second {
		t.Errorf("default stall duration = %v, want 30s", got)
	}

	// ExitDelay comes straight from the profile.
	e, _ := ParseProcFaults("delay-exit=250ms")
	if got := New(1).Proc("x", e).ExitDelay(); got != 250*time.Millisecond {
		t.Errorf("ExitDelay() = %v, want 250ms", got)
	}
}
