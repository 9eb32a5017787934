package sim

// Day-loop benchmark harness. BenchmarkStepDay times whole simulated
// days — arrivals, agents, serving, detection — against the same warmed
// MediumConfig world the serving benchmark uses, per worker count, with
// the per-phase wall-time split reported alongside time/op so the
// agent/detection scaling is visible separately from serving's.
//
// TestWriteDayloopBenchJSON is the `make bench-dayloop` entry point: it
// measures workers ∈ {1, 2, 4} and writes BENCH_dayloop.json at the repo
// root, phase split included. Like the serving report it records
// GOMAXPROCS — on a single-CPU host the parallel numbers are necessarily
// ~1×, and the file says so rather than pretending otherwise.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

var benchDayloopOut = flag.String("bench-dayloop-out", "",
	"write the day-loop benchmark report JSON to this file (see make bench-dayloop)")

// BenchmarkStepDay times one full simulated day per worker count. The
// warmed horizon is finite, so the sim is re-restored (off the clock)
// whenever an iteration would run past it.
func BenchmarkStepDay(b *testing.B) {
	state, _, cfg := mediumServingState(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var pt PhaseTimes
			s := restoreServing(b, state, workers)
			s.SetPhaseTimes(&pt)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.day >= cfg.Days {
					b.StopTimer()
					s = restoreServing(b, state, workers)
					s.SetPhaseTimes(&pt)
					b.StartTimer()
				}
				s.Step()
			}
			b.StopTimer()
			days := float64(b.N)
			b.ReportMetric(float64(pt.Agents.Nanoseconds())/days, "agents-ns/day")
			b.ReportMetric(float64(pt.Serving.Nanoseconds())/days, "serving-ns/day")
			b.ReportMetric(float64(pt.Detection.Nanoseconds())/days, "detection-ns/day")
		})
	}
}

// DayloopBenchMode is one measured worker configuration, with the day
// cost split by phase — wall time from the timed pass, heap allocation
// counts from a separate untimed pass (see measureDayloop).
type DayloopBenchMode struct {
	Workers           int     `json:"workers"`
	MeasuredDays      int     `json:"measured_days"`
	NsPerDay          float64 `json:"ns_per_day"`
	ArrivalsNsPerDay  float64 `json:"arrivals_ns_per_day"`
	AgentsNsPerDay    float64 `json:"agents_ns_per_day"`
	ServingNsPerDay   float64 `json:"serving_ns_per_day"`
	DetectionNsPerDay float64 `json:"detection_ns_per_day"`
	// The draw-ahead inside the agents phase (PhaseTimes.QueryDraw and
	// DrawWait): the draw runs beside plan/apply, only the wait is part
	// of agents_ns_per_day. Both are zero at workers=1, where there is no
	// draw-ahead and the draw is part of serving_ns_per_day.
	QueryDrawNsPerDay float64 `json:"query_draw_ns_per_day"`
	DrawWaitNsPerDay  float64 `json:"draw_wait_ns_per_day"`

	AllocsPerDay          float64 `json:"allocs_per_day"`
	ArrivalsAllocsPerDay  float64 `json:"arrivals_allocs_per_day"`
	AgentsAllocsPerDay    float64 `json:"agents_allocs_per_day"`
	ServingAllocsPerDay   float64 `json:"serving_allocs_per_day"`
	DetectionAllocsPerDay float64 `json:"detection_allocs_per_day"`
}

// DayloopBenchReport is the BENCH_dayloop.json schema.
type DayloopBenchReport struct {
	Bench      string             `json:"bench"`
	Config     string             `json:"config"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Timestamp  string             `json:"timestamp"`
	Modes      []DayloopBenchMode `json:"modes"`
	Note       string             `json:"note"`
}

// measureDayloop times `days` full simulated days at the given worker
// count against a restored copy of the warmed state, splitting the cost
// by phase.
func measureDayloop(tb testing.TB, state []byte, workers, days int) DayloopBenchMode {
	tb.Helper()
	s := restoreServing(tb, state, workers)
	s.Step() // untimed shakedown: plan buffers, shard buffers, page cache
	var pt PhaseTimes
	s.SetPhaseTimes(&pt)
	start := time.Now()
	for i := 0; i < days; i++ {
		if s.day >= s.cfg.Days {
			tb.Fatal("warmed horizon too short for the measurement window")
		}
		s.Step()
	}
	elapsed := time.Since(start)
	d := float64(days)

	// Allocation pass, off the clock: a fresh restore walks the same days
	// with the PhaseAllocs hook attached. Separate from the timed loop so
	// the wall-clock numbers never pay the hook's ReadMemStats
	// stop-the-world pauses.
	s = restoreServing(tb, state, workers)
	s.Step() // same shakedown as the timed pass
	var pa PhaseAllocs
	s.SetPhaseAllocs(&pa)
	total0 := mallocs()
	for i := 0; i < days; i++ {
		if s.day >= s.cfg.Days {
			tb.Fatal("warmed horizon too short for the allocation window")
		}
		s.Step()
	}
	total := mallocs() - total0

	return DayloopBenchMode{
		Workers:           workers,
		MeasuredDays:      days,
		NsPerDay:          float64(elapsed.Nanoseconds()) / d,
		ArrivalsNsPerDay:  float64(pt.Arrivals.Nanoseconds()) / d,
		AgentsNsPerDay:    float64(pt.Agents.Nanoseconds()) / d,
		ServingNsPerDay:   float64(pt.Serving.Nanoseconds()) / d,
		DetectionNsPerDay: float64(pt.Detection.Nanoseconds()) / d,
		QueryDrawNsPerDay: float64(pt.QueryDraw.Nanoseconds()) / d,
		DrawWaitNsPerDay:  float64(pt.DrawWait.Nanoseconds()) / d,

		AllocsPerDay:          float64(total) / d,
		ArrivalsAllocsPerDay:  float64(pa.Arrivals) / d,
		AgentsAllocsPerDay:    float64(pa.Agents) / d,
		ServingAllocsPerDay:   float64(pa.Serving) / d,
		DetectionAllocsPerDay: float64(pa.Detection) / d,
	}
}

// dayloopBenchReport measures each worker count over the given warmed
// state and assembles the report.
func dayloopBenchReport(tb testing.TB, state []byte, cfgName string, workerCounts []int, days int) DayloopBenchReport {
	procs := runtime.GOMAXPROCS(0)
	var modes []DayloopBenchMode
	for _, w := range workerCounts {
		modes = append(modes, measureDayloop(tb, state, w, days))
	}
	note := "wall time and heap allocations per simulated day, split by phase (arrivals is " +
		"sequential by design; agents, serving and detection run one freeze-then-merge form " +
		"whose fan-out is workers, so the workers=1 row is the same code as the others); " +
		"allocation counts come from an untimed second pass over the same days; " +
		"at workers > 1 the day's query draw (serving's phase A) runs inside the agents phase " +
		"beside plan/apply — query_draw_ns_per_day is its cost, draw_wait_ns_per_day the part " +
		"agents blocked on — while at workers=1 serving draws for itself, so compare " +
		"ns_per_day across rows, not the agents/serving split"
	if procs == 1 {
		note += "; HOST HAS 1 CPU: multi-worker modes run time-sliced on one core, " +
			"so the parallel speedup is not observable here — rerun on a multi-core host"
	}
	return DayloopBenchReport{
		Bench:      "dayloop",
		Config:     cfgName,
		GOMAXPROCS: procs,
		GoVersion:  runtime.Version(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Modes:      modes,
		Note:       note,
	}
}

// TestWriteDayloopBenchJSON is driven by `make bench-dayloop`: with
// -bench-dayloop-out it measures MediumConfig whole-day throughput per
// worker count and writes the JSON report; without the flag it skips.
func TestWriteDayloopBenchJSON(t *testing.T) {
	if *benchDayloopOut == "" {
		t.Skip("pass -bench-dayloop-out (or run `make bench-dayloop`)")
	}
	state, _, _ := mediumServingState(t)
	rep := dayloopBenchReport(t, state, "MediumConfig", []int{1, 2, 4}, 6)
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*benchDayloopOut, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s:\n%s", *benchDayloopOut, b)
}

// TestDayloopBenchReportSmoke keeps the harness under test on every
// `go test` run: a tiny config flows through warmup, measurement and
// serialization, the phase split accounts for (almost all of) the day
// cost, and the report survives a JSON round trip.
func TestDayloopBenchReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small simulation")
	}
	cfg := SmallConfig()
	cfg.Days = 30
	cfg.QueriesPerDay = 300
	cfg.InitialLegit = 120
	state, _ := warmServingState(t, cfg, 20)
	rep := dayloopBenchReport(t, state, "smoke", []int{1, 2}, 2)
	if len(rep.Modes) != 2 || rep.Modes[0].Workers != 1 || rep.Modes[1].Workers != 2 {
		t.Fatalf("unexpected modes: %+v", rep.Modes)
	}
	for _, m := range rep.Modes {
		if m.NsPerDay <= 0 {
			t.Fatalf("degenerate measurement: %+v", m)
		}
		phases := m.ArrivalsNsPerDay + m.AgentsNsPerDay + m.ServingNsPerDay + m.DetectionNsPerDay
		if phases <= 0 || phases > m.NsPerDay*1.01 {
			t.Fatalf("phase split inconsistent with day total: %+v", m)
		}
		if drew := m.QueryDrawNsPerDay > 0; drew != (m.Workers > 1) || m.DrawWaitNsPerDay > m.AgentsNsPerDay {
			t.Fatalf("draw-ahead split inconsistent with the worker count or the agents phase: %+v", m)
		}
		if m.AllocsPerDay <= 0 {
			t.Fatalf("allocation pass measured nothing: %+v", m)
		}
		allocPhases := m.ArrivalsAllocsPerDay + m.AgentsAllocsPerDay + m.ServingAllocsPerDay + m.DetectionAllocsPerDay
		// The whole-day total brackets the phase brackets (plus the hook's
		// own ReadMemStats bookkeeping), so the split can never exceed it
		// by more than that slack.
		if allocPhases <= 0 || allocPhases > m.AllocsPerDay+64 {
			t.Fatalf("allocation split inconsistent with day total: %+v", m)
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back DayloopBenchReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.GOMAXPROCS != runtime.GOMAXPROCS(0) || back.Bench != "dayloop" {
		t.Fatalf("report round trip: %+v", back)
	}
}
