package sim

// Serving-loop benchmark. BenchmarkServeDay times serveQueries — the
// phase the Workers pool parallelizes — against a warmed MediumConfig
// world, per worker count. Every served day starts with an empty page
// cache, so each measured day pays the cold-cache start a live day pays.
// serveQueries is called with no agents phase before it, so each
// iteration draws the day's queries first, on the benchmark goroutine.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/simclock"
)

// warmServingState runs cfg to warmDays and returns its reference
// checkpoint frame plus the next day to serve: every measurement
// restores from the same frozen world, so worker counts compete on
// identical state.
func warmServingState(tb testing.TB, cfg Config, warmDays int) ([]byte, simclock.Day) {
	tb.Helper()
	s := New(cfg)
	for int(s.day) < warmDays {
		if !s.Step() {
			tb.Fatal("horizon ended during benchmark warmup")
		}
	}
	frame, err := ReferenceFrame(s)
	if err != nil {
		tb.Fatal(err)
	}
	return frame, s.day
}

func restoreServing(tb testing.TB, frame []byte, workers int) *Sim {
	tb.Helper()
	c, err := DecodeCheckpoint(frame)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := Restore(c.State)
	if err != nil {
		tb.Fatal(err)
	}
	s.SetWorkers(workers)
	return s
}

// mediumBenchState memoizes the MediumConfig warmup shared by
// BenchmarkServeDay and BenchmarkStepDay.
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
				s.drawQueries()
				s.serveQueries(day)
			}
			b.StopTimer()
			served := float64(b.N) * float64(cfg.QueriesPerDay)
			b.ReportMetric(served/b.Elapsed().Seconds(), "queries/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/served, "ns/query")
		})
	}
}
