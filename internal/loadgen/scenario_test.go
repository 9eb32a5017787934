package loadgen

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyScenario is a fast 3-instance spec: small bootstrap, short
// horizon, affinity policy (deterministic per-backend routing), cache
// off (concurrent same-key misses would race the hit/miss split),
// generous admission so nothing sheds.
func tinyScenario() Scenario {
	return Scenario{
		Name:      "tiny",
		Seed:      424242,
		Instances: 3,
		Policy:    "affinity",
		Days:      6,
		Queries:   150,
		Arrival:   ArrivalSpec{Kind: "poisson", Rate: 400},
		HorizonMS: 250,
		Classes: []Class{
			{Name: "head", Weight: 0.6, Kind: "head"},
			{Name: "tail", Weight: 0.3, Kind: "tail"},
			{Name: "junk", Weight: 0.1, Kind: "nomatch"},
		},
		MaxInflight: 256,
	}
}

// TestScenarioRunTwiceByteIdentical is the PR's acceptance pin: the
// same seeded scenario run twice produces byte-identical normalized
// reports — per-class counters, per-backend served counts, ad and
// click tallies, everything that is not wall time.
func TestScenarioRunTwiceByteIdentical(t *testing.T) {
	spec := tinyScenario()
	run := func() []byte {
		rep, err := RunScenario(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(rep.Normalize(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := run()
	b := run()
	if !bytes.Equal(a, b) {
		t.Fatalf("normalized reports differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}

	var rep ScenarioReport
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Scheduled == 0 || rep.Load.Total.Sent == 0 {
		t.Fatal("scenario sent nothing")
	}
	if rep.Load.Total.OK != rep.Load.Total.Sent {
		t.Fatalf("unsaturated run had failures: sent=%d ok=%d shed=%d err=%d",
			rep.Load.Total.Sent, rep.Load.Total.OK, rep.Load.Total.Shed, rep.Load.Total.Errors)
	}
	if rep.Load.Total.Ads == 0 {
		t.Fatal("no ads served — head traffic should match live keywords")
	}
	// Affinity spread every backend some share of the keyspace.
	servedBackends := 0
	for _, b := range rep.Router.Backends {
		if b.Served > 0 {
			servedBackends++
		}
	}
	if servedBackends < 2 {
		t.Fatalf("affinity routed everything to %d backend(s)", servedBackends)
	}
}

// TestScenarioFaultsAccounted: a scenario with an injected error
// profile reports the injection in its own section and the router masks
// it from clients.
func TestScenarioFaultsAccounted(t *testing.T) {
	spec := tinyScenario()
	spec.Name = "faulty"
	spec.HorizonMS = 150
	spec.Policy = "round_robin"
	spec.Faults = []FaultSpec{{Backend: 0, FailFrom: 1, FailUntil: 6}}
	rep, err := RunScenario(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Injected) != 1 || rep.Injected[0].Errors == 0 {
		t.Fatalf("injected faults not reported: %+v", rep.Injected)
	}
	if rep.Load.Total.Errors != 0 {
		t.Fatalf("injected single-backend errors leaked to clients: %d", rep.Load.Total.Errors)
	}
	if rep.Router.Masked == 0 {
		t.Fatal("router reports no masking despite injected errors")
	}
}

// TestZeroMaxInflightMeansNoBound: max_inflight 0 runs every instance
// with no admission bound, as adserver -max-inflight 0 does, rather
// than with a bound the spec never asked for.
func TestZeroMaxInflightMeansNoBound(t *testing.T) {
	spec := tinyScenario()
	spec.MaxInflight = 0
	spec.HorizonMS = 50
	rep, err := RunScenario(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Backends) != spec.Instances {
		t.Fatalf("%d backends reported, want %d", len(rep.Backends), spec.Instances)
	}
	for _, b := range rep.Backends {
		if b.Capacity != 0 {
			t.Errorf("backend %s: capacity %d, want 0 (no admission bound)", b.Instance, b.Capacity)
		}
	}
}

// TestLoadScenarioFile round-trips a spec through disk and validation.
func TestLoadScenarioFile(t *testing.T) {
	spec := tinyScenario()
	b, _ := json.Marshal(spec)
	path := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != spec.Name || got.Instances != 3 {
		t.Fatalf("round-trip mangled spec: %+v", got)
	}
	if _, err := LoadScenario(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := spec
	bad.Policy = "bogus"
	bb, _ := json.Marshal(bad)
	badPath := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(badPath, bb, 0o644)
	if _, err := LoadScenario(badPath); err == nil {
		t.Fatal("invalid policy accepted")
	}
	// A field the spec does not define (here a retired router knob) is
	// refused rather than silently run with defaults.
	unknown := bytes.Replace(b, []byte(`"name":`), []byte(`"retries":2,"name":`), 1)
	unknownPath := filepath.Join(t.TempDir(), "unknown.json")
	os.WriteFile(unknownPath, unknown, 0o644)
	if _, err := LoadScenario(unknownPath); err == nil || !strings.Contains(err.Error(), "retries") {
		t.Fatalf("spec with an unknown field: got %v, want an unknown-field error", err)
	}
}

// TestScenarioValidate screens the spec edge cases cmd/adbench relies on.
func TestScenarioValidate(t *testing.T) {
	flash := func(startMS, durMS int) ArrivalSpec {
		return ArrivalSpec{Kind: "flash", Rate: 400, Factor: 4, StartMS: startMS, DurMS: durMS}
	}
	cases := []func(*Scenario){
		func(s *Scenario) { s.Instances = 0 },
		func(s *Scenario) { s.Policy = "nope" },
		func(s *Scenario) { s.Arrival.Rate = 0 },
		func(s *Scenario) { s.HorizonMS = 0 },
		func(s *Scenario) { s.Classes = nil },
		func(s *Scenario) { s.Faults = []FaultSpec{{Backend: 9}} },
		// Negative sizes and an inverted outage window would otherwise
		// silently turn their feature off.
		func(s *Scenario) { s.MaxInflight = -5 },
		func(s *Scenario) { s.CacheSize = -1 },
		func(s *Scenario) { s.Days = -1 },
		func(s *Scenario) { s.Queries = -600 },
		func(s *Scenario) { s.Faults = []FaultSpec{{Backend: 0, LatencyMS: -1}} },
		func(s *Scenario) { s.Faults = []FaultSpec{{Backend: 0, FailFrom: 6, FailUntil: 1}} },
		func(s *Scenario) { s.Faults = []FaultSpec{{Backend: 0, FailFrom: 0, FailUntil: 6}} },
		// A flash arrival whose window injects no spike, and window
		// fields on a poisson arrival, which ignores them.
		func(s *Scenario) { s.Arrival = flash(50, 0) },
		func(s *Scenario) { s.Arrival = flash(50, -10) },
		func(s *Scenario) { s.Arrival = flash(-1, 100) },
		func(s *Scenario) { s.Arrival = flash(250, 100) }, // the horizon
		func(s *Scenario) { s.Arrival.Factor = 4 },
		func(s *Scenario) { s.Arrival.StartMS = 50 },
		func(s *Scenario) { s.Arrival.DurMS = 100 },
	}
	for i, mutate := range cases {
		spec := tinyScenario()
		mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Fatalf("case %d: invalid spec accepted", i)
		}
	}
	// Arrival kinds that were removed fail as any unknown kind does.
	for _, kind := range []string{"gamma", "weibull", "diurnal"} {
		spec := tinyScenario()
		spec.Arrival.Kind = kind
		if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "unknown arrival kind") {
			t.Fatalf("arrival kind %q: got %v, want an unknown-arrival-kind error", kind, err)
		}
	}
	good := tinyScenario()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	good.Arrival = flash(0, 100)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid flash spec rejected: %v", err)
	}
}
