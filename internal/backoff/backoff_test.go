package backoff

import (
	"testing"
	"time"
)

// TestBackoffSeededDeterminism: the whole delay schedule is a pure
// function of (seed, stream) — same inputs, same sleeps, so a chaos
// run's restart timing replays exactly.
func TestBackoffSeededDeterminism(t *testing.T) {
	schedule := func(seed uint64, stream int) []time.Duration {
		b := New(seed, stream, 10*time.Millisecond, time.Second)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = b.Next()
		}
		return out
	}
	a, b := schedule(42, 1), schedule(42, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: %v != %v for identical (seed, stream)", i, a[i], b[i])
		}
	}
	// The schedule is part of every chaos test's expectations (router
	// re-admission, supervisor restarts): these are the values the
	// schedule produced before it moved to this package.
	pinned := []time.Duration{11371363, 15465401, 52969614, 102931794, 213072998, 475228531}
	for i, want := range pinned {
		if a[i] != want {
			t.Errorf("attempt %d: %d ns, pinned %d ns", i, a[i], want)
		}
	}
	// Different streams draw different jitter (lockstep restarts after a
	// simultaneous multi-member failure are exactly what jitter prevents).
	c := schedule(42, 2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("two streams drew identical backoff schedules; jitter ignores the stream")
	}
}

// TestBackoffDoublingAndJitterBounds: each delay is the doubling mean
// times a [0.5, 1.5) jitter draw — always inside those envelope bounds,
// never above the cap.
func TestBackoffDoublingAndJitterBounds(t *testing.T) {
	const base, cap = 10 * time.Millisecond, 10 * time.Second
	for seed := uint64(0); seed < 20; seed++ {
		b := New(seed, int(seed), base, cap)
		for attempt := 0; attempt < 10; attempt++ {
			mean := base << attempt
			if mean > cap {
				mean = cap
			}
			d := b.Next()
			lo := time.Duration(float64(mean) * 0.5)
			hi := time.Duration(float64(mean) * 1.5)
			if hi > cap {
				hi = cap
			}
			if d < lo || d > hi {
				t.Fatalf("seed %d attempt %d: delay %v outside [%v, %v] (mean %v)",
					seed, attempt, d, lo, hi, mean)
			}
		}
	}
}

// TestBackoffCapRespected: far past the doubling horizon every delay is
// still <= Cap — including the shifted-mean overflow regime.
func TestBackoffCapRespected(t *testing.T) {
	const cap = 100 * time.Millisecond
	b := New(7, 0, 10*time.Millisecond, cap)
	for i := 0; i < 80; i++ { // well past 62 attempts, where Base<<attempt overflows
		if d := b.Next(); d <= 0 || d > cap {
			t.Fatalf("attempt %d: delay %v escapes (0, %v]", i, d, cap)
		}
	}
	if b.attempt != 80 {
		t.Errorf("attempt = %d, want 80", b.attempt)
	}
}

// TestBackoffResetRewindsDoublingNotJitter: Reset restarts the doubling
// at the base mean but keeps consuming the same jitter stream — the
// schedule stays a function of the seed alone.
func TestBackoffResetRewindsDoublingNotJitter(t *testing.T) {
	const base, cap = 10 * time.Millisecond, 10 * time.Second
	b := New(3, 1, base, cap)
	for i := 0; i < 5; i++ {
		b.Next()
	}
	b.Reset()
	if b.attempt != 0 {
		t.Fatalf("attempt after Reset = %d, want 0", b.attempt)
	}
	// Post-reset delay is drawn against the base mean again.
	if d := b.Next(); d < base/2 || d > base+base/2 {
		t.Errorf("post-reset delay %v outside first-attempt envelope [%v, %v]",
			d, base/2, base+base/2)
	}
}
