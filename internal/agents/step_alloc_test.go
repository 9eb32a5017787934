package agents

// Allocation pins for the agent step: after the per-agent caches (keyword
// sampler, URL strings) and the runtime's scratch buffers warm up, a step
// allocates only what the platform keeps — the property the day loop
// relies on to stay allocation-flat across days.

import "testing"

func TestStepAllocationFlat(t *testing.T) {
	p, _, rt, f := testWorld(t, 31)
	prof := f.NewLegit()
	// Exercise every path: portfolio build, churn replacement, and
	// maintenance modifications.
	prof.PortfolioSize, prof.BuildPerDay = 12, 3
	prof.ChurnRate, prof.MaintainRate = 0.8, 0.9
	a := spawnActive(t, p, rt, prof)

	// Warm-up: grow the portfolio to target and the scratch buffers to
	// their high-water capacities.
	for day := a.StartDay; day < a.StartDay+50; day++ {
		rt.Step(a, day)
	}

	// Measure on days past testWorld's one collector window, as most of a
	// run's days are: the collector's in-window fold allocates a slice
	// per record, which is its cost, not the step's.
	day := a.StartDay + 1000

	// A maintenance-only day mutates ads and bids in place.
	a.ChurnRate, a.MaintainRate = 0, 1
	avg := testing.AllocsPerRun(100, func() {
		rt.Step(a, day)
		day++
	})
	if avg != 0 {
		t.Fatalf("maintenance-only Step allocates %.2f objects/op after warm-up, want 0", avg)
	}

	// A day with exactly one create allocates what the platform keeps:
	// the ad, its bid array, the ad's slice of pointers into it, and the
	// index's posting-list growth for the new bids, which over this seeded
	// window averages between two and three objects a create
	// (AllocsPerRun reports the truncated mean, so the pin is exact).
	a.MaintainRate, a.BuildPerDay = 0, 1
	acct := p.MustAccount(a.Account)
	created := acct.AdsCreated
	avg = testing.AllocsPerRun(100, func() {
		a.PortfolioSize = len(acct.Ads) + 1
		rt.Step(a, day)
		day++
	})
	if got := acct.AdsCreated - created; got != 101 { // AllocsPerRun adds one warm-up call
		t.Fatalf("created %d ads over the measurement window, want 101", got)
	}
	if avg != 5 {
		t.Fatalf("one-create Step allocates %.2f objects/op after warm-up, want 5", avg)
	}
}
