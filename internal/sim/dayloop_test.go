// The phase-cursor state machine of the day loop. The day loop's
// determinism across worker counts, phase-boundary checkpoints and the
// draw-ahead are proven against the recorder's worlds (record_test.go).
package sim_test

import (
	"testing"

	"repro/internal/sim"
)

// TestStepPhaseSequencing pins the phase state machine: phases cycle
// arrivals → agents → serving → detection, the day advances only on the
// detection → arrivals edge, and StepPhase refuses to run past the
// horizon.
func TestStepPhaseSequencing(t *testing.T) {
	cfg := matrixConfig(7)
	cfg.Days = 3
	cfg.QueriesPerDay = 100
	cfg.InitialLegit = 30
	s := sim.New(cfg)
	s.SetWorkers(2)

	order := []sim.Phase{sim.PhaseArrivals, sim.PhaseAgents, sim.PhaseServing, sim.PhaseDetection}
	for day := 0; day < int(cfg.Days); day++ {
		for _, want := range order {
			if s.Phase() != want {
				t.Fatalf("day %d: phase = %s, want %s", day, s.Phase(), want)
			}
			if int(s.Day()) != day {
				t.Fatalf("phase %s: day = %d, want %d", want, s.Day(), day)
			}
			s.StepPhase()
		}
	}
	if s.Day() != cfg.Days || s.Phase() != sim.PhaseArrivals {
		t.Fatalf("after the horizon: day %d phase %s", s.Day(), s.Phase())
	}
	if s.StepPhase() {
		t.Fatal("StepPhase ran past the horizon")
	}
}
