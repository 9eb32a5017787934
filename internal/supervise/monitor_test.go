package supervise

import (
	"testing"
	"time"
)

// TestMonitorLateButAliveVsDead pins the supervisor's core judgment:
// expiry is decided at check time, so a heartbeat that lands after the
// deadline would have passed — but before the supervisor looks — counts
// as alive. Restarts are for silent workers, not slow schedulers.
func TestMonitorLateButAliveVsDead(t *testing.T) {
	t0 := time.Unix(1000, 0)
	m := newHBMonitor(time.Second)
	m.Observe(t0)

	// Within the timeout: alive.
	if m.Expired(t0.Add(900 * time.Millisecond)) {
		t.Error("expired inside the timeout window")
	}
	// Exactly at the timeout: still alive (strict inequality).
	if m.Expired(t0.Add(time.Second)) {
		t.Error("expired exactly at the timeout boundary")
	}
	// A heartbeat that was late — the deadline passed at t0+1s, but it
	// arrived at t0+1.5s before anyone checked — resets the clock.
	m.Observe(t0.Add(1500 * time.Millisecond))
	if m.Expired(t0.Add(2 * time.Second)) {
		t.Error("late-but-alive worker judged dead after its heartbeat arrived")
	}
	// Genuine silence past the timeout: dead.
	if !m.Expired(t0.Add(3 * time.Second)) {
		t.Error("silent worker never expired")
	}
}

// TestMonitorDisarmedNeverExpires: before the first Observe (worker
// still spawning) and after Disarm (worker exited cleanly), silence is
// expected and must not trigger a restart.
func TestMonitorDisarmedNeverExpires(t *testing.T) {
	t0 := time.Unix(1000, 0)
	m := newHBMonitor(time.Second)
	if m.Expired(t0.Add(time.Hour)) {
		t.Error("never-armed monitor expired")
	}
	if m.Silence(t0.Add(time.Hour)) != 0 {
		t.Error("never-armed monitor reports nonzero silence")
	}

	m.Observe(t0)
	m.Disarm()
	if m.Expired(t0.Add(time.Hour)) {
		t.Error("disarmed monitor expired")
	}
	// Re-arming after disarm starts a fresh window from the new
	// observation, not the stale one.
	m.Observe(t0.Add(2 * time.Hour))
	if m.Expired(t0.Add(2*time.Hour + 500*time.Millisecond)) {
		t.Error("re-armed monitor judged against the pre-disarm observation")
	}
}

// TestMonitorSilenceAndClockSkew: Silence reports the quiet span for
// diagnostics, and an out-of-order Observe (delivery skew) never moves
// lastSeen backward.
func TestMonitorSilenceAndClockSkew(t *testing.T) {
	t0 := time.Unix(1000, 0)
	m := newHBMonitor(time.Second)
	m.Observe(t0.Add(5 * time.Second))
	// Skewed, older observation: ignored.
	m.Observe(t0)
	if got := m.Silence(t0.Add(6 * time.Second)); got != time.Second {
		t.Errorf("Silence = %v, want 1s (older observation must not rewind lastSeen)", got)
	}
	// A check from "before" the last observation clamps to zero rather
	// than going negative.
	if got := m.Silence(t0); got != 0 {
		t.Errorf("Silence before lastSeen = %v, want 0", got)
	}
}
