package agents

// Allocation pin for the planning half of the agent step: after the
// per-agent caches (keyword sampler, URL strings) and the plan's backing
// arrays warm up, PlanStep must stop allocating entirely — the property
// the day loop relies on to stay allocation-flat across days.

import (
	"testing"

	"repro/internal/simclock"
)

func TestPlanStepAllocationFlat(t *testing.T) {
	p, _, rt, f := testWorld(t, 31)
	prof := f.NewLegit()
	// Exercise every planning path: portfolio build, churn replacement,
	// and maintenance modifications.
	prof.PortfolioSize = 12
	prof.BuildPerDay = 3
	prof.ChurnRate = 0.8
	prof.MaintainRate = 0.9
	a := spawnActive(t, p, rt, prof)

	// Warm-up: real plan+apply days grow the portfolio to target and the
	// plan buffers to their high-water capacities.
	var plan StepPlan
	day := a.StartDay
	for i := 0; i < 50; i++ {
		plan.Reset()
		rt.PlanStep(a, day, &plan)
		rt.ApplyStep(a, day, &plan, 0)
		day++
	}

	// Steady state: planning alone, against the warm account, across
	// fresh days (the RNG keeps advancing, so churn and maintenance
	// draws keep firing) must allocate nothing.
	avg := testing.AllocsPerRun(100, func() {
		plan.Reset()
		rt.PlanStep(a, day, &plan)
		day++
	})
	if avg != 0 {
		t.Fatalf("PlanStep allocates %.2f objects/op after warm-up, want 0", avg)
	}
	if !p.MustAccount(a.Account).Alive() {
		t.Fatal("agent went dormant during the measurement window")
	}
	_ = simclock.Day(day)
}
