package sim

// Day-loop benchmark. BenchmarkStepDay times whole simulated days —
// arrivals, agents, serving, detection — against the same warmed
// MediumConfig world the serving benchmark uses, per worker count, with
// the per-phase wall-time split reported alongside time/op so the
// sequential phases' cost is visible separately from serving's scaling.

import (
	"fmt"
	"testing"
	"time"
)

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

// TestPhaseTimesConsistency pins what readers of PhaseTimes rely on: the
// four phases account for the day without exceeding it, and the
// draw-ahead and the staged index flush ran inside the agents phase at
// every worker count.
func TestPhaseTimesConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small simulation")
	}
	cfg := SmallConfig()
	cfg.Days = 30
	cfg.QueriesPerDay = 300
	cfg.InitialLegit = 120
	state, _ := warmServingState(t, cfg, 20)
	for _, workers := range []int{1, 2} {
		s := restoreServing(t, state, workers)
		s.Step() // untimed shakedown: agent scratch, shard buffers, page cache
		var pt PhaseTimes
		s.SetPhaseTimes(&pt)
		start := time.Now()
		s.Step()
		s.Step()
		day := time.Since(start)
		phases := pt.Arrivals + pt.Agents + pt.Serving + pt.Detection
		if phases <= 0 || phases > day {
			t.Fatalf("workers=%d: phase sum %v inconsistent with day total %v: %+v", workers, phases, day, pt)
		}
		if pt.QueryDraw <= 0 || pt.DrawWait > pt.Agents {
			t.Fatalf("workers=%d: no draw-ahead, or one not inside the agents phase: %+v", workers, pt)
		}
		if pt.IndexApply <= 0 || pt.IndexApply > pt.Agents {
			t.Fatalf("workers=%d: no index flush, or one not inside the agents phase: %+v", workers, pt)
		}
	}
}
