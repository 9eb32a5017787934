package repro

// Benchmark smoke gate: every benchmark in this package is executed for
// exactly one iteration inside a regular test, so `go test ./...` proves
// the benchmark bodies still compile AND run — a broken benchmark
// otherwise goes unnoticed until someone next profiles. The gate shrinks
// the ablation configuration and skips itself whenever real benchmarks
// were requested, so it never contaminates actual measurements.

import (
	"flag"
	"testing"
)

// smokeBenchmarks lists every benchmark the gate drives.
var smokeBenchmarks = map[string]func(*testing.B){
	"AblationKeywordPockets":       BenchmarkAblationKeywordPockets,
	"AblationPolicyBan":            BenchmarkAblationPolicyBan,
	"AblationRecidivism":           BenchmarkAblationRecidivism,
	"AblationDetectionImprovement": BenchmarkAblationDetectionImprovement,
}

func TestBenchmarkSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark once")
	}
	if f := flag.Lookup("test.bench"); f != nil && f.Value.String() != "" {
		// A real benchmark run is in flight: do not shrink the ablation
		// configuration or clamp the iteration budget.
		t.Skip("-bench requested; smoke gate stands down")
	}

	// testing.Benchmark honors -test.benchtime; clamp it to exactly one
	// iteration for the gate and restore whatever was set before.
	bt := flag.Lookup("test.benchtime")
	if bt == nil {
		t.Fatal("no test.benchtime flag")
	}
	prev := bt.Value.String()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := flag.Set("test.benchtime", prev); err != nil {
			t.Errorf("restoring test.benchtime: %v", err)
		}
	}()

	ablationSmoke = true
	defer func() { ablationSmoke = false }()

	for name, fn := range smokeBenchmarks {
		fn := fn
		t.Run(name, func(t *testing.T) {
			r := testing.Benchmark(fn)
			if r.N < 1 {
				t.Fatalf("benchmark did not iterate (N=%d)", r.N)
			}
		})
	}
}
