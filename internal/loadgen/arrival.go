// Package loadgen is the seeded synthetic-traffic harness for the
// routed adserver cluster: open-loop arrival processes (Poisson, flash
// crowd), traffic classes drawn from the keyword universes, and a runner
// that starts each request on a goroutine of its own when it is due, so
// no answer, however late, delays a later arrival, and reports each
// class's counters and exact latency quantiles once all have answered.
// Every schedule and every query is a pure
// function of the scenario seed, so two runs of the same scenario
// produce identical request streams — the property the byte-identical
// report golden pins.
package loadgen

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/stats"
)

// Arrival produces inter-arrival gaps for an open-loop schedule. The
// elapsed offset of the arrival being scheduled is passed in so
// time-varying processes (flash crowd) can modulate their
// instantaneous rate; stationary processes ignore it.
type Arrival interface {
	// Gap draws the delay between the arrival at elapsed and the next
	// one. Implementations must draw only from rng.
	Gap(rng *stats.RNG, elapsed time.Duration) time.Duration
	// String names the process for reports.
	String() string
}

// gapFromSeconds converts a positive seconds draw into a duration,
// flooring at one nanosecond so schedules always advance.
func gapFromSeconds(s float64) time.Duration {
	if s <= 0 || math.IsNaN(s) {
		return time.Nanosecond
	}
	d := time.Duration(s * float64(time.Second))
	if d < time.Nanosecond {
		return time.Nanosecond
	}
	return d
}

// Poisson is the memoryless baseline: exponential gaps at Rate per
// second — the standard open-loop model for aggregate search traffic.
type Poisson struct {
	Rate float64 // arrivals per second, > 0
}

func (p Poisson) Gap(rng *stats.RNG, _ time.Duration) time.Duration {
	return gapFromSeconds(stats.Exponential(rng, 1/p.Rate))
}

func (p Poisson) String() string { return fmt.Sprintf("poisson(rate=%g)", p.Rate) }

// FlashCrowd is a Poisson baseline that multiplies its rate by Factor
// inside the [Start, Start+Duration) window — a breaking-news spike
// slamming the cluster mid-run.
type FlashCrowd struct {
	Base     float64
	Factor   float64 // spike multiplier, >= 1
	Start    time.Duration
	Duration time.Duration
}

func (f FlashCrowd) Gap(rng *stats.RNG, elapsed time.Duration) time.Duration {
	rate := f.Base
	if elapsed >= f.Start && elapsed < f.Start+f.Duration {
		rate *= f.Factor
	}
	return gapFromSeconds(stats.Exponential(rng, 1/rate))
}

func (f FlashCrowd) String() string {
	return fmt.Sprintf("flashcrowd(base=%g,x%g@%s+%s)", f.Base, f.Factor, f.Start, f.Duration)
}

// Schedule materializes an open-loop arrival schedule: offsets from the
// run start, strictly increasing, covering [0, horizon). The schedule
// is a pure function of (proc, seed, horizon). maxN > 0 caps the
// schedule length (a guard for pathological rate configs); 0 means
// uncapped.
func Schedule(proc Arrival, seed uint64, horizon time.Duration, maxN int) []time.Duration {
	rng := stats.NewRNG(seed)
	var out []time.Duration
	t := proc.Gap(rng, 0) // first arrival is one gap past the start
	for t < horizon {
		out = append(out, t)
		if maxN > 0 && len(out) >= maxN {
			break
		}
		t += proc.Gap(rng, t)
	}
	return out
}

// SplitSchedule partitions a schedule round-robin across n senders,
// preserving order within each. Interleaving by arrival index (not
// contiguous blocks) keeps every sender busy across the whole horizon,
// but a sender that waits for each answer before its next slot is
// closed-loop: a slow answer delays its later slots, so a caller should
// time each request from when it was due, not from when it went out.
func SplitSchedule(sched []time.Duration, n int) [][]time.Duration {
	if n < 1 {
		n = 1
	}
	out := make([][]time.Duration, n)
	for i, t := range sched {
		out[i%n] = append(out[i%n], t)
	}
	for _, s := range out {
		if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
			panic("loadgen: schedule not sorted") // unreachable: Schedule is increasing
		}
	}
	return out
}
