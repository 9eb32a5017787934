package main

// Router policy-under-fault checks over the committed scenario files:
// round-robin against least-loaded and affinity on scenarios built to
// expose their structural advantages. By hand:
//
//	adbench -scenario cmd/adbench/testdata/scenario_slow_backend.json -policy least_loaded
//
// Two scenarios, two mechanisms:
//
//   - slow_backend: member i2 carries a 500ms injected service latency;
//     everything else is healthy and uncontended. Round-robin keeps
//     sending it a third of the traffic and waits out the latency every
//     time; least-loaded reads the in-flight gauge and routes around the
//     congestion, so its p99 collapses to the healthy members' service
//     time. The slow member sits at the highest index so the
//     least-loaded tie-break (lowest index wins at equal load) sends idle
//     ties to healthy members.
//
//   - cache_affinity: trending keywords (head class capped to the single
//     most popular keyword per vertical), a 1s injected "auction cost" on
//     every cache miss (the fault layer mounts inside the response cache,
//     so hits skip it), and — the load-bearing constraint — a 256-entry
//     response cache per member. The cache keys on (query, country), so
//     39 trending phrases fan out to ~600 cacheable pairs across markets:
//     the global working set does not fit any single member's cache, but
//     an affinity partition of it (one third of the phrases, ~200 pairs)
//     does. Round-robin therefore thrashes its LRUs forever — every
//     member needs every pair — and its steady-state miss rate stays
//     ~2.5x affinity's no matter how long the warmup runs (measured
//     in-spike: ~25% vs ~10%). A calm 20s warmup reaches that steady
//     state without tripping admission; the 8x flash crowd (440/s for 6s)
//     then offers ~37 erlangs of miss work per member under round-robin
//     against the 40-slot admission gate — deep inside the Erlang-B knee,
//     so the gate trips early in the spike, and each 429 cools that
//     member for the whole-seconds Retry-After, diverting its keyspace as
//     ~100%-miss traffic onto survivors already at the knee: the cascade
//     is the amplifier that turns the first trip into sustained shedding.
//     The affinity cluster's hottest member carries ~17 erlangs, a
//     ~23-slot absolute margin that absorbs both Poisson fluctuation
//     (Erlang-B ~1e-6) and the bursty in-flight contribution of
//     concurrent cache hits on a time-sliced CPU. Shedding is the policy
//     signal.

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/loadgen"
)

// TestCommittedScenariosValidate: every scenario file in testdata parses
// and passes validation, so a spec field renamed or an arrival kind
// removed cannot strand a committed file.
func TestCommittedScenariosValidate(t *testing.T) {
	paths, err := filepath.Glob("testdata/scenario_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no scenario files found")
	}
	for _, p := range paths {
		if _, err := loadgen.LoadScenario(p); err != nil {
			t.Error(err)
		}
	}
}

// runPolicy runs one committed scenario under one policy through the
// CLI entry point.
func runPolicy(t *testing.T, scenario, policy string) loadgen.ScenarioReport {
	t.Helper()
	var out bytes.Buffer
	err := run([]string{"-scenario", filepath.Join("testdata", scenario), "-policy", policy, "-quiet"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadgen.ScenarioReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRouterPolicyWins asserts the structural wins the two scenarios are
// built to expose. It runs ≈ 60 s and judges wall-clock latency, so it is
// opt-in: ADBENCH_POLICY_WINS=1.
func TestRouterPolicyWins(t *testing.T) {
	if os.Getenv("ADBENCH_POLICY_WINS") == "" {
		t.Skip("set ADBENCH_POLICY_WINS=1 to run")
	}
	unserved := func(r loadgen.ScenarioReport) float64 { return r.Load.Total.ShedRate + r.Load.Total.ErrRate }
	misses := func(r loadgen.ScenarioReport) (n int64) {
		for _, b := range r.Backends {
			n += b.CacheMiss
		}
		return n
	}

	slowRR := runPolicy(t, "scenario_slow_backend.json", "round_robin")
	slowLL := runPolicy(t, "scenario_slow_backend.json", "least_loaded")
	cacheRR := runPolicy(t, "scenario_cache_affinity.json", "round_robin")
	cacheAff := runPolicy(t, "scenario_cache_affinity.json", "affinity")

	// Loose factors: these are structural gaps (routing around 500ms vs
	// waiting it out; paying a miss cost once per key vs once per key per
	// member), not timing noise.
	if ll, rr := slowLL.Load.Total.Latency.P99NS, slowRR.Load.Total.Latency.P99NS; ll >= rr/2 {
		t.Errorf("least_loaded p99 %dns not < half of round_robin p99 %dns", ll, rr)
	}
	if cacheRR.Load.Total.ShedRate <= 0 {
		t.Errorf("cache scenario never saturated round_robin (shed rate %v) — scenario lost its pressure", cacheRR.Load.Total.ShedRate)
	}
	if unserved(cacheAff) >= unserved(cacheRR)*0.7 {
		t.Errorf("affinity unserved rate %.3f not well below round_robin %.3f", unserved(cacheAff), unserved(cacheRR))
	}
	if misses(cacheAff) >= misses(cacheRR) {
		t.Errorf("affinity misses %d not below round_robin misses %d", misses(cacheAff), misses(cacheRR))
	}
}
