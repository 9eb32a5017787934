package repro

import (
	"sync"
	"testing"
)

// facadeConfig is the tiny configuration shared by the façade's
// end-to-end test and the quickstart golden (golden_facade_test.go).
func facadeConfig() SimConfig {
	cfg := SmallConfig()
	cfg.Days = 120
	cfg.QueriesPerDay = 800
	cfg.RegistrationsPerDay = 10
	cfg.InitialLegit = 250
	cfg.Seed = 3
	return cfg
}

// facadeRun memoizes one façade-level simulation plus its experiment env
// across the tests in this package.
var facadeRun struct {
	once sync.Once
	res  *SimResult
	env  *Env
}

func facadeResult(t *testing.T) (*SimResult, *Env) {
	t.Helper()
	facadeRun.once.Do(func() {
		facadeRun.res = Run(facadeConfig())
		facadeRun.env = NewEnv(facadeRun.res, 500, 9)
	})
	return facadeRun.res, facadeRun.env
}

func TestFacadeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	res, env := facadeResult(t)
	if res.Clicks == 0 {
		t.Fatal("dead economy")
	}
	study := NewStudy(res)
	if study.PreAdShutdownShare() <= 0 {
		t.Fatal("no pre-ad shutdowns")
	}
	if len(env.Battery) == 0 {
		t.Fatal("no subset batteries")
	}
	if len(Experiments()) != 23 {
		t.Fatalf("%d experiments registered, want 23", len(Experiments()))
	}
	exp, ok := Experiment("fig2")
	if !ok {
		t.Fatal("fig2 missing")
	}
	out := exp.Run(env)
	if out.Metrics["median_account_lifetime_y1_days"] <= 0 {
		t.Fatal("fig2 produced no lifetime")
	}
}
