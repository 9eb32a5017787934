package sim

// Serving-loop benchmark harness. BenchmarkServeDay times serveQueries —
// the phase the Workers pool parallelizes — against a warmed MediumConfig
// world, per worker count. Each iteration bumps the index epoch first, so
// every measured day pays the realistic cold-cache start a live day pays
// (agent campaign edits invalidate the page cache daily). serveQueries is
// called with no agents phase before it, so it draws the day's queries
// itself at every worker count; measureServing, which feeds the committed
// record, runs the draw-ahead off the clock as a live day does.
//
// TestWriteServingBenchJSON is the `make bench-serving` entry point: it
// measures Workers=1 versus Workers=GOMAXPROCS throughput and writes
// BENCH_serving.json at the repo root. The report records GOMAXPROCS —
// on a single-CPU host the parallel numbers are necessarily ~1×, and the
// file says so rather than pretending otherwise.

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/simclock"
)

var benchServingOut = flag.String("bench-serving-out", "",
	"write the serving benchmark report JSON to this file (see make bench-serving)")

// warmServingState runs cfg to warmDays and returns the gob-encoded
// snapshot plus the next day to serve: every measurement restores from
// the same frozen world, so worker counts compete on identical state.
func warmServingState(tb testing.TB, cfg Config, warmDays int) ([]byte, simclock.Day) {
	tb.Helper()
	s := New(cfg)
	for int(s.day) < warmDays {
		if !s.Step() {
			tb.Fatal("horizon ended during benchmark warmup")
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s.Snapshot()); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), s.day
}

func restoreServing(tb testing.TB, state []byte, workers int) *Sim {
	tb.Helper()
	var st State
	if err := gob.NewDecoder(bytes.NewReader(state)).Decode(&st); err != nil {
		tb.Fatal(err)
	}
	s, err := Restore(&st)
	if err != nil {
		tb.Fatal(err)
	}
	s.SetWorkers(workers)
	return s
}

// mediumBenchState memoizes the MediumConfig warmup shared by
// BenchmarkServeDay and TestWriteServingBenchJSON.
var mediumBenchState struct {
	once  sync.Once
	state []byte
	day   simclock.Day
	cfg   Config
}

func mediumServingState(tb testing.TB) ([]byte, simclock.Day, Config) {
	mediumBenchState.once.Do(func() {
		cfg := MediumConfig()
		cfg.Days = 60
		mediumBenchState.cfg = cfg
		mediumBenchState.state, mediumBenchState.day = warmServingState(tb, cfg, 45)
	})
	return mediumBenchState.state, mediumBenchState.day, mediumBenchState.cfg
}

// BenchmarkServeDay times one day of query serving (cold page cache, as
// in a live run) per worker count. The interesting comparison is
// workers=4 versus workers=1 on a multi-core host; queries/s and
// ns/query are reported alongside time/op.
func BenchmarkServeDay(b *testing.B) {
	state, day, cfg := mediumServingState(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := restoreServing(b, state, workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.p.Index().BumpEpoch() // a live day starts cache-cold
				s.serveQueries(day)
			}
			b.StopTimer()
			served := float64(b.N) * float64(cfg.QueriesPerDay)
			b.ReportMetric(served/b.Elapsed().Seconds(), "queries/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/served, "ns/query")
		})
	}
}

// ServingBenchMode is one measured worker configuration.
type ServingBenchMode struct {
	Workers       int     `json:"workers"`
	MeasuredDays  int     `json:"measured_days"`
	QueriesPerSec float64 `json:"queries_per_sec"`
	NsPerQuery    float64 `json:"ns_per_query"`
	// QueryDrawNsPerDay is the day's query draw when it happens ahead of
	// the serving phase and so outside ns_per_query: workers > 1. At
	// workers=1 there is no draw-ahead: it is zero, and serving's phase A
	// draws the queries inside ns_per_query.
	QueryDrawNsPerDay float64 `json:"query_draw_ns_per_day"`
	// AllocsPerDay counts heap allocations per served day (process-wide
	// Mallocs delta bracketing the measured loop, so worker-goroutine
	// allocations are included).
	AllocsPerDay float64 `json:"allocs_per_day"`
}

// ServingBenchReport is the BENCH_serving.json schema.
type ServingBenchReport struct {
	Bench         string             `json:"bench"`
	Config        string             `json:"config"`
	QueriesPerDay int                `json:"queries_per_day"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	GoVersion     string             `json:"go_version"`
	Timestamp     string             `json:"timestamp"`
	Modes         []ServingBenchMode `json:"modes"`
	Note          string             `json:"note"`
}

// measureServing times `days` cold-cache serving days at the given
// worker count against a restored copy of the warmed state.
func measureServing(tb testing.TB, state []byte, day simclock.Day, qpd, workers, days int) ServingBenchMode {
	tb.Helper()
	s := restoreServing(tb, state, workers)
	s.p.Index().BumpEpoch()
	s.serveQueries(day) // untimed shakedown: page allocations, buffer growth
	m0 := mallocs()     // two MemStats reads bracket the loop, outside the timing
	var elapsed, draw time.Duration
	for i := 0; i < days; i++ {
		s.p.Index().BumpEpoch()
		if workers > 1 {
			// What agentPhase does on a live day: the draw is not serving's.
			s.startDraw()
			s.joinDraw()
			draw += s.draw.took
		}
		start := time.Now()
		s.serveQueries(day)
		elapsed += time.Since(start)
	}
	allocs := mallocs() - m0
	served := float64(days) * float64(qpd)
	return ServingBenchMode{
		Workers:           workers,
		MeasuredDays:      days,
		QueriesPerSec:     served / elapsed.Seconds(),
		NsPerQuery:        float64(elapsed.Nanoseconds()) / served,
		QueryDrawNsPerDay: float64(draw.Nanoseconds()) / float64(days),
		AllocsPerDay:      float64(allocs) / float64(days),
	}
}

// servingBenchReport measures serving at one worker and at GOMAXPROCS
// workers over the given warmed state and assembles the report.
func servingBenchReport(tb testing.TB, state []byte, day simclock.Day, cfgName string, qpd, days int) ServingBenchReport {
	pooled := runtime.GOMAXPROCS(0)
	modes := []ServingBenchMode{measureServing(tb, state, day, qpd, 1, days)}
	if pooled > 1 {
		modes = append(modes, measureServing(tb, state, day, qpd, pooled, days))
	} else {
		// One CPU: more workers cannot beat one, but still measure what the
		// fan-out costs at a multi-worker setting.
		modes = append(modes, measureServing(tb, state, day, qpd, 4, days))
	}
	note := "queries/sec for one day of serving, cold page cache per day; " +
		"the same five-sub-phase code at workers=1 and at workers=GOMAXPROCS; at workers > 1 " +
		"the query draw (phase A) happens ahead of serving, in the agents phase, and is " +
		"reported apart as query_draw_ns_per_day, at workers=1 serving draws for itself and " +
		"the draw is inside ns_per_query — so judge the day loop by BENCH_dayloop.json's ns_per_day"
	if pooled == 1 {
		note += "; HOST HAS 1 CPU: the second mode runs 4 workers time-sliced on one core, " +
			"so the parallel speedup is not observable here — rerun on a multi-core host"
	}
	return ServingBenchReport{
		Bench:         "serving",
		Config:        cfgName,
		QueriesPerDay: qpd,
		GOMAXPROCS:    pooled,
		GoVersion:     runtime.Version(),
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		Modes:         modes,
		Note:          note,
	}
}

// TestWriteServingBenchJSON is driven by `make bench-serving`: with
// -bench-serving-out it measures MediumConfig serving throughput and
// writes the JSON report; without the flag it skips.
func TestWriteServingBenchJSON(t *testing.T) {
	if *benchServingOut == "" {
		t.Skip("pass -bench-serving-out (or run `make bench-serving`)")
	}
	state, day, cfg := mediumServingState(t)
	rep := servingBenchReport(t, state, day, "MediumConfig", cfg.QueriesPerDay, 6)
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*benchServingOut, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s:\n%s", *benchServingOut, b)
}

// TestServingBenchReportSmoke keeps the harness itself under test on
// every `go test` run: a tiny config flows through warmup, measurement
// and serialization, and the report is structurally sound.
func TestServingBenchReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small simulation")
	}
	cfg := SmallConfig()
	cfg.Days = 30
	cfg.QueriesPerDay = 300
	cfg.InitialLegit = 120
	state, day := warmServingState(t, cfg, 20)
	rep := servingBenchReport(t, state, day, "smoke", cfg.QueriesPerDay, 2)
	if len(rep.Modes) != 2 || rep.Modes[0].Workers != 1 {
		t.Fatalf("unexpected modes: %+v", rep.Modes)
	}
	for _, m := range rep.Modes {
		if m.QueriesPerSec <= 0 || m.NsPerQuery <= 0 {
			t.Fatalf("degenerate measurement: %+v", m)
		}
		if m.AllocsPerDay <= 0 {
			t.Fatalf("allocation bracket measured nothing: %+v", m)
		}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back ServingBenchReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.GOMAXPROCS != runtime.GOMAXPROCS(0) || back.Bench != "serving" {
		t.Fatalf("report round trip: %+v", back)
	}
}
