package supervise

import "time"

// hbMonitor is the supervisor's per-worker liveness state machine,
// split out from the supervisor loop so its edge cases — late-but-
// alive versus genuinely dead — are unit-testable against a fake clock.
//
// The rule: a worker is expired when no message (heartbeat, day report,
// anything) has been observed for longer than the timeout. Expiry is
// judged at check time, so a heartbeat that arrives late — after the
// deadline would have passed but before the supervisor looks — counts
// as alive: restarts are for silent workers, not slow schedulers.
type hbMonitor struct {
	timeout  time.Duration
	lastSeen time.Time
	armed    bool
}

// newHBMonitor builds a monitor; it stays disarmed (never expiring)
// until the first Observe, so a worker still being spawned has the full
// timeout from its first message, not from time zero.
func newHBMonitor(timeout time.Duration) *hbMonitor {
	return &hbMonitor{timeout: timeout}
}

// Observe records proof of life at time now.
func (m *hbMonitor) Observe(now time.Time) {
	if !m.armed || now.After(m.lastSeen) {
		m.lastSeen = now
	}
	m.armed = true
}

// Disarm stops expiry judgments (the worker exited or completed; its
// silence is expected).
func (m *hbMonitor) Disarm() { m.armed = false }

// Expired reports whether, judged at now, the worker has been silent
// past the timeout. A disarmed monitor never expires.
func (m *hbMonitor) Expired(now time.Time) bool {
	return m.armed && now.Sub(m.lastSeen) > m.timeout
}

// Silence returns how long the worker has been quiet at now (zero when
// disarmed), for diagnostics.
func (m *hbMonitor) Silence(now time.Time) time.Duration {
	if !m.armed {
		return 0
	}
	d := now.Sub(m.lastSeen)
	if d < 0 {
		return 0
	}
	return d
}
