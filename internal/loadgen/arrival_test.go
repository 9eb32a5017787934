package loadgen

import (
	"testing"
	"time"
)

// allProcesses covers every arrival kind with mid-range parameters.
func allProcesses() map[string]Arrival {
	return map[string]Arrival{
		"poisson": Poisson{Rate: 500},
		"flash":   FlashCrowd{Base: 300, Factor: 8, Start: 50 * time.Millisecond, Duration: 100 * time.Millisecond},
	}
}

// TestScheduleDeterminism is the satellite pin: for every process kind,
// the same seed yields the identical arrival timestamp sequence, and a
// different seed yields a different one.
func TestScheduleDeterminism(t *testing.T) {
	for name, proc := range allProcesses() {
		a := Schedule(proc, 1234, time.Second, 0)
		b := Schedule(proc, 1234, time.Second, 0)
		if len(a) == 0 {
			t.Fatalf("%s: empty schedule", name)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ across runs: %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: offset %d differs: %v vs %v", name, i, a[i], b[i])
			}
		}
		c := Schedule(proc, 1235, time.Second, 0)
		same := len(a) == len(c)
		if same {
			for i := range a {
				if a[i] != c[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatalf("%s: different seeds produced identical schedules", name)
		}
	}
}

// TestScheduleShape pins the structural invariants every process must
// satisfy: strictly increasing offsets, all within the horizon, and the
// maxN cap honored.
func TestScheduleShape(t *testing.T) {
	for name, proc := range allProcesses() {
		sched := Schedule(proc, 42, time.Second, 0)
		for i, off := range sched {
			if off < 0 || off >= time.Second {
				t.Fatalf("%s: offset %d = %v outside horizon", name, i, off)
			}
			if i > 0 && off <= sched[i-1] {
				t.Fatalf("%s: offsets not strictly increasing at %d: %v then %v", name, i, sched[i-1], off)
			}
		}
		capped := Schedule(proc, 42, time.Second, 10)
		if len(capped) > 10 {
			t.Fatalf("%s: maxN cap ignored (%d arrivals)", name, len(capped))
		}
		// The cap is a prefix of the uncapped schedule.
		for i := range capped {
			if capped[i] != sched[i] {
				t.Fatalf("%s: capped schedule is not a prefix at %d", name, i)
			}
		}
	}
}

// TestScheduleRates sanity-checks that the mean arrival count tracks
// the configured rate (loose bounds — this is a distribution check, not
// a timing one).
func TestScheduleRates(t *testing.T) {
	n := len(Schedule(Poisson{Rate: 1000}, 7, time.Second, 0))
	if n < 800 || n > 1200 {
		t.Fatalf("poisson(1000/s) over 1s produced %d arrivals", n)
	}
	// Flash crowd: the spike window must be denser than the baseline.
	fc := FlashCrowd{Base: 200, Factor: 10, Start: 400 * time.Millisecond, Duration: 200 * time.Millisecond}
	sched := Schedule(fc, 7, time.Second, 0)
	inSpike := 0
	for _, off := range sched {
		if off >= fc.Start && off < fc.Start+fc.Duration {
			inSpike++
		}
	}
	outside := len(sched) - inSpike
	if inSpike <= outside {
		t.Fatalf("flash spike (%d arrivals) not denser than baseline (%d) despite 10x factor", inSpike, outside)
	}
}

// TestSplitSchedule pins the sender interleave: round-robin, order
// preserved within each shard, nothing lost.
func TestSplitSchedule(t *testing.T) {
	sched := Schedule(Poisson{Rate: 500}, 3, time.Second, 0)
	shards := SplitSchedule(sched, 4)
	total := 0
	for w, shard := range shards {
		total += len(shard)
		for i, off := range shard {
			if off != sched[w+i*4] {
				t.Fatalf("shard %d slot %d: got %v, want %v", w, i, off, sched[w+i*4])
			}
		}
	}
	if total != len(sched) {
		t.Fatalf("split lost arrivals: %d of %d", total, len(sched))
	}
}
