package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/loadgen"
)

const tinySpec = "testdata/scenario_tiny.json"

// TestRunSmoke drives the full binary path: spec from disk, cluster up,
// schedule fired, JSON report out.
func TestRunSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	var stderr bytes.Buffer
	if err := run([]string{"-scenario", tinySpec, "-out", out}, io.Discard, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadgen.ScenarioReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if rep.Scenario != "tiny-affinity" || rep.Policy != "affinity" || rep.Instances != 3 {
		t.Fatalf("report header: %+v", rep)
	}
	if rep.Load.Total.Sent == 0 || rep.Load.Total.OK == 0 {
		t.Fatalf("no traffic served: %+v", rep.Load.Total)
	}
	if rep.Load.WallNS == 0 {
		t.Fatal("un-normalized report lost wall time")
	}
	if !strings.Contains(stderr.String(), "arrivals") {
		t.Fatalf("progress output missing: %q", stderr.String())
	}
}

// TestRunNormalizedTwiceByteIdentical is the acceptance pin at the CLI
// layer: the same seeded spec run twice emits byte-identical normalized
// reports.
func TestRunNormalizedTwiceByteIdentical(t *testing.T) {
	once := func() []byte {
		var out bytes.Buffer
		if err := run([]string{"-scenario", tinySpec, "-normalize", "-quiet"}, &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	a, b := once(), once()
	if !bytes.Equal(a, b) {
		t.Fatalf("normalized runs differ:\n--- 1 ---\n%s\n--- 2 ---\n%s", a, b)
	}
	var rep loadgen.ScenarioReport
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Load.WallNS != 0 || rep.Load.Total.Latency.P99NS != 0 {
		t.Fatalf("normalize left wall-time fields: wall=%d p99=%d", rep.Load.WallNS, rep.Load.Total.Latency.P99NS)
	}
}

// TestRunOverrides: CLI overrides replace the spec's policy/seed/count.
func TestRunOverrides(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-scenario", tinySpec, "-quiet", "-normalize",
		"-policy", "round_robin", "-seed", "7", "-instances", "2"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadgen.ScenarioReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Policy != "round_robin" || rep.Seed != 7 || rep.Instances != 2 {
		t.Fatalf("overrides ignored: policy=%s seed=%d instances=%d", rep.Policy, rep.Seed, rep.Instances)
	}
}

// TestRunErrors: bad invocations fail cleanly.
func TestRunErrors(t *testing.T) {
	if err := run(nil, io.Discard, io.Discard); err == nil {
		t.Fatal("missing -scenario accepted")
	}
	if err := run([]string{"-scenario", "does-not-exist.json"}, io.Discard, io.Discard); err == nil {
		t.Fatal("missing spec file accepted")
	}
	if err := run([]string{"-scenario", tinySpec, "-policy", "bogus"}, io.Discard, io.Discard); err == nil {
		t.Fatal("bogus policy override accepted")
	}
	// A negative count is refused, not read as "use the spec's count".
	if err := run([]string{"-scenario", tinySpec, "-quiet", "-instances", "-1"}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "-instances") {
		t.Fatalf("-instances -1: got %v, want a refusal", err)
	}
}

// TestCommittedScenariosValidate: every scenario file in testdata parses
// and passes validation, so a spec field renamed or an arrival kind
// removed cannot strand a committed file. internal/loadgen's
// TestRouterPolicyWins runs two of them.
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
