package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/sim"
	"repro/internal/simclock"
	"repro/internal/stats"
)

// workload is one set of inputs the benchmark runs. op says what one
// "operation" of the end-to-end metrics is on it: ops_per_s counts
// them, op_p50_us and op_tail_us are the median and the tail of their
// durations.
type workload struct {
	name string
	why  string // one line; BENCHMARK.json carries the same text
	op   string
	run  func(r *run, root int) error
}

var workloads = []workload{
	{
		name: "repro_queries",
		why:  "Reproduction (sim, 23 analyses, render) tilted to serving: about 80% of the time is query draw, eligibility, auction, click rolls and fold.",
		op:   "one simulated day of a whole reproduction job; ops_per_s = days / job wall, tail = p95 day",
		run:  func(r *run, root int) error { return runRepro(r, root, reproQueriesConfig) },
	},
	{
		name: "repro_accounts",
		why:  "Same reproduction code with the opposite tilt: agents and day-0 seeding dominate, serving is under 10%; the bypass for serving-core changes.",
		op:   "as repro_queries",
		run:  func(r *run, root int) error { return runRepro(r, root, reproAccountsConfig) },
	},
	{
		name: "durable",
		why:  "What fraudsim -eventlog -checkpoint -checkpoint-every 10 -sync rotate does: log append, rotation and checkpoints dominate and are absent from repro_*.",
		op:   "one simulated day including its rotation and checkpoint; ops_per_s = days / (NewDirWriter .. Close), tail = p95 day = a checkpoint day",
		run:  runDurable,
	},
	{
		name: "recover",
		why:  "Read side of the durable layers: ReplayDir, RecoverDir, Lineage.Load and Restore, so a writer gain that costs the reader or the restore shows.",
		op:   "op = kill to ready-to-step (RecoverDir + Lineage.Load + Restore), tail = p75; ops_per_s = log events replayed per second by dataset.ReplayDir; each per window of five cycles, best decile over windows",
		run:  runRecover,
	},
	{
		name: "search_mixed",
		why:  "/search via router to two adservers, cache off, head/extended/tail/nomatch mix: every request pays resolve, eligibility, auction and render.",
		op:   "one /search request; p50 and tail = p95 with one closed client, ops_per_s = OK responses/s with nproc closed clients; each the best decile over the run's windows",
		run:  func(r *run, root int) error { return runSearch(r, root, searchMixed) },
	},
	{
		name: "search_hot",
		why:  "Same stack with the response cache on, affinity routing and 50 hot keywords: ~99% cache hits, so router, HTTP and cache dominate and adserver compute is bypassed.",
		op:   "as search_mixed",
		run:  func(r *run, root int) error { return runSearch(r, root, searchHot) },
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Sizing. The reproduction workloads keep the issue's 200-day horizon —
// the analyses read the Y1Q2 window, days 91 to 182, and are empty on a
// shorter run — and its shape ratios (queries per day : initial
// population : registrations per day), with all three divided alike so
// that one job takes one to two seconds on the two-core reference host
// and a run of --seconds 15 holds seven or more jobs. tinyDays is the
// smoke-test horizon.
const (
	reproDays = 200
	tinyDays  = 20
)

// config builds a workload's sim.Config. Workers stays at the CLI
// default 0 (= GOMAXPROCS) on every workload. The tiny scale caps every
// dimension so the smoke test stays in seconds.
func config(r *run, days, queriesPerDay, initialLegit int, regsPerDay float64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Seed = r.seed
	cfg.Days = simclock.Day(days)
	cfg.QueriesPerDay = queriesPerDay
	cfg.InitialLegit = initialLegit
	cfg.RegistrationsPerDay = regsPerDay
	if r.tiny {
		cfg.Days = tinyDays
		cfg.QueriesPerDay = min(queriesPerDay, 1000)
		cfg.InitialLegit = min(initialLegit, 100)
		cfg.RegistrationsPerDay = min(regsPerDay, 3)
	}
	return cfg
}

// reproQueriesConfig is the issue's 40000 : 400 : 12, over four.
func reproQueriesConfig(r *run) sim.Config { return config(r, reproDays, 10000, 100, 3) }

// reproAccountsConfig is the issue's 300 : 4000 : 40, over eight: small
// populations make its worlds differ the most from seed to seed (first
// jobs of ten seeds ran at 125 to 184 days/s), so its jobs are the
// shortest and a run takes its medians over the most worlds.
func reproAccountsConfig(r *run) sim.Config { return config(r, reproDays, 38, 500, 5) }

// durableConfig is sim.SmallConfig's shape at a shorter horizon.
func durableConfig(r *run) sim.Config { return config(r, 60, 1500, 400, 12) }

// recoverConfig is the same shape, shorter again: its log is written
// three times during set-up and then read dozens of times.
func recoverConfig(r *run) sim.Config { return config(r, 40, 1500, 400, 12) }

// bootstrapConfig is the world the search workloads serve from:
// SmallConfig's population, grown for 60 days. Set-up pays for it three
// times a run, so it is no longer than the request path needs (≈ 1200
// accounts' ads to choose among).
func bootstrapConfig(r *run) sim.Config { return config(r, 60, 600, 400, 12) }

// checkpointEvery is fraudsim's -checkpoint-every in the durable and
// recover workloads.
const checkpointEvery = 10

// simRun is what driving one Sim to its horizon measured.
type simRun struct {
	dayUS []float64 // every day's duration, hook included

	// Traced runs only.
	day0    time.Duration    // the first StepPhase call: initial population
	phase   [4]time.Duration // by sim.Phase, day0 excluded
	mallocs uint64           // heap allocations between first and last day boundary
}

func (sr *simRun) phaseSum() time.Duration {
	sum := sr.day0
	for _, d := range sr.phase {
		sum += d
	}
	return sum
}

// drive steps s to its horizon. before, when non-nil, runs at each day
// boundary ahead of the day's first phase (the durable run checkpoints
// there) and its time counts into that day. Untraced, a day is one
// Step call. Traced, a day is its StepPhase calls, each booked under
// the phase Sim.Phase() named and recorded as a span under a day span.
func (sr *simRun) drive(r *run, s *sim.Sim, days simclock.Day, parent int, traced bool, before func(day int, parent int) error) error {
	fresh := s.Day() == 0
	var m0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}
	for s.Day() < days {
		day := int(s.Day())
		t0 := time.Now()
		dayID := 0
		if traced {
			dayID = r.tr.begin(parent, "day")
		}
		if before != nil {
			if err := before(day, dayID); err != nil {
				return fmt.Errorf("day %d: %w", day, err)
			}
		}
		if !traced {
			s.Step()
		} else {
			for {
				ph := s.Phase()
				p0 := time.Now()
				s.StepPhase()
				d := time.Since(p0)
				name := "phase/" + ph.String()
				if fresh {
					fresh = false
					sr.day0 += d
					name = "phase/day0"
				} else {
					sr.phase[ph] += d
				}
				r.tr.add(dayID, name, p0, d, 0)
				if s.Phase() == sim.PhaseArrivals {
					break
				}
			}
			r.tr.end(dayID, int64(day))
		}
		sr.dayUS = append(sr.dayUS, float64(time.Since(t0))/1e3)
	}
	if traced {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		sr.mallocs = m1.Mallocs - m0.Mallocs
	}
	return nil
}

// job is what one batch job (a whole reproduction, a whole durable run)
// reports to the batch loop.
type job struct {
	wall  time.Duration
	days  int
	dayUS []float64
}

// batchTailP is the tail percentile of a job's day durations: with
// checkpointEvery = 10 a tenth of the durable run's days carry a
// checkpoint, so p95 sits inside them; a 200-day job leaves 10 samples
// beyond it, a 60-day one 3 — the run's figure is the median of seven
// or more such tails.
const batchTailP = 0.95

// worldSeed is the sim seed of a run's i-th job. One seed is one
// simulated world, and worlds differ in how much work a day holds; a
// run therefore simulates a different world in each of its jobs and
// reports medians over them, which spreads less across --seed values
// than any single world would. Job 0's world is --seed itself — the pinned one at 42.
func worldSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)*0x9e3779b97f4a7c15
}

// batch runs whole jobs back to back until the measured time is used
// up, and derives the end-to-end operation metrics from them: each job
// gives its days per second of wall and the median and batchTailP day
// of its own world, and the run reports the median of each over its
// jobs. In the traced run every second job is traced;
// trace_overhead_share compares those with the others.
func (r *run) batch(root int, one func(i int, parent int, traced bool) (job, error)) error {
	var rates, p50, tail, tracedWall, plainWall []float64
	days := 0
	start := time.Now()
	for i := 0; ; i++ {
		traced := r.traced && i%2 == 1
		// Each job starts from a collected heap, so what the previous
		// job left behind is not collected on this job's time.
		runtime.GC()
		id := r.tr.begin(root, "job")
		j, err := one(i, id, traced)
		if err != nil {
			return fmt.Errorf("job %d: %w", i, err)
		}
		r.tr.end(id, int64(j.days))
		if traced {
			tracedWall = append(tracedWall, j.wall.Seconds())
		} else {
			plainWall = append(plainWall, j.wall.Seconds())
		}
		rates = append(rates, float64(j.days)/j.wall.Seconds())
		p50 = append(p50, stats.Median(j.dayUS))
		tail = append(tail, stats.Quantile(j.dayUS, batchTailP))
		days += j.days
		if time.Since(start) >= r.seconds && (!r.traced || i > 0) {
			break
		}
	}
	r.set("ops_per_s", stats.Median(rates))
	r.set("op_p50_us", stats.Median(p50))
	r.set("op_tail_us", stats.Median(tail))
	r.logf("%s: %d jobs at %.1f days/s, %d days, %d beyond p%g in each job", r.workload,
		len(rates), rates, days, beyond(days/len(rates), batchTailP), batchTailP*100)
	if r.traced {
		r.set("trace_overhead_share", stats.Median(tracedWall)/stats.Median(plainWall)-1)
	}
	return nil
}
