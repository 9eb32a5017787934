package repro

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestExperimentsJudgedUnderSimGolden holds EXPERIMENTS.md to the world
// it describes. Its scorecard names the sim golden fingerprint it was
// judged under; when `make golden` moves that fingerprint, the
// fidelity record is stale until it is regenerated and re-judged.
func TestExperimentsJudgedUnderSimGolden(t *testing.T) {
	md, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("Judged under sim golden fingerprint `([0-9a-f]+)`").FindSubmatch(md)
	if m == nil {
		t.Fatal("EXPERIMENTS.md's scorecard names no sim golden fingerprint")
	}
	golden := filepath.Join("internal", "sim", "testdata", "tiny_seed7_digest.golden.json")
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var g struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint == "" {
		t.Fatalf("%s holds no fingerprint", golden)
	}
	if string(m[1]) != g.Fingerprint {
		t.Errorf("EXPERIMENTS.md was judged under sim golden fingerprint %s, but %s now reads %s. "+
			"Regenerate its body with `go run ./cmd/experiments -scale medium -subset 4000 -md FILE -svg figures`, "+
			"put it below the scorecard, re-judge the scorecard and update the fingerprint it names",
			m[1], golden, g.Fingerprint)
	}
}
