// Package backoff is the seeded exponential-backoff-with-jitter schedule
// shared by the run supervisor (the sleep between a worker's death and
// its restart) and the adserver router (the interval between
// re-admission probes of an ejected backend).
package backoff

import (
	"time"

	"repro/internal/stats"
)

// Backoff produces a doubling delay schedule with multiplicative jitter.
// The sequence is a pure function of (seed, stream, base, cap), so a
// chaos run's timing is reproducible; distinct streams of one seed draw
// distinct jitter, which keeps simultaneous failures from retrying in
// lockstep.
type Backoff struct {
	// Base is the mean of the first delay; each subsequent delay doubles
	// the mean, capped at Cap.
	Base time.Duration
	// Cap bounds every delay (jitter included).
	Cap time.Duration

	rng     *stats.RNG
	attempt int
}

// New builds a schedule seeded by (seed, stream); 0 < base <= cap.
func New(seed uint64, stream int, base, cap time.Duration) *Backoff {
	return &Backoff{
		Base: base,
		Cap:  cap,
		rng:  stats.NewRNG(seed ^ (uint64(stream)+1)*0x9e3779b97f4a7c15),
	}
}

// Next returns the delay before the next attempt: the doubling mean for
// the current attempt, multiplied by a uniform [0.5, 1.5) jitter draw,
// clamped to Cap. Attempt count advances on every call.
func (b *Backoff) Next() time.Duration {
	mean := b.Base << b.attempt
	if b.attempt >= 62 || mean > b.Cap || mean <= 0 {
		mean = b.Cap
	}
	b.attempt++
	d := time.Duration(float64(mean) * (0.5 + b.rng.Float64()))
	if d > b.Cap {
		d = b.Cap
	}
	return d
}

// Reset rewinds the doubling (after the peer has proven healthy for a
// while) without reseeding the jitter stream.
func (b *Backoff) Reset() { b.attempt = 0 }
