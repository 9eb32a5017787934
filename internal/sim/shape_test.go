package sim_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestShapeRefusesWhatItWouldReplace: a zero override means the scale
// default, so a negative one, a NaN rate or an infinite one is refused
// rather than silently read as zero.
func TestShapeRefusesWhatItWouldReplace(t *testing.T) {
	for _, tc := range []struct {
		flag  string
		shape sim.Shape
	}{
		{"-days", sim.Shape{Days: -1}},
		{"-queries", sim.Shape{Queries: -300}},
		{"-legit", sim.Shape{Legit: -2}},
		{"-regs", sim.Shape{Regs: -0.5}},
		{"-regs", sim.Shape{Regs: math.NaN()}},
		{"-regs", sim.Shape{Regs: math.Inf(1)}},
	} {
		tc.shape.Scale = "small"
		if _, err := tc.shape.Config(); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%+v: %v, want a refusal naming %s", tc.shape, err, tc.flag)
		}
	}
	cfg, err := sim.Shape{Scale: "small", Days: 9, Regs: 2.5}.Config()
	if err != nil || cfg.Days != 9 || cfg.RegistrationsPerDay != 2.5 {
		t.Fatalf("valid overrides: %v (days %d, regs %v)", err, cfg.Days, cfg.RegistrationsPerDay)
	}
}
