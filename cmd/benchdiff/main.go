// Command benchdiff compares two benchmark report JSON files produced by
// the `make bench-*` targets and exits nonzero when the new record
// regresses the old beyond a threshold.
//
//	benchdiff -old BENCH_dayloop.json -new /tmp/BENCH_dayloop.new.json -max-regress 10
//
// The report schema is detected from the "bench" field: "dayloop" gates
// on ns_per_day per workers mode, "serving" on ns_per_query. Modes are
// matched by worker count; allocation deltas (allocs_per_day, when both
// records carry them) are printed as advisory context but never gate.
// CI runs this as an advisory job against the committed baseline (see
// bench-smoke in .github/workflows/ci.yml); comparing records from
// different hosts tells you about the hosts, not the code, which is why
// the gate is advisory rather than blocking.
//
//	benchdiff -pairs OLD.jsonl NEW.jsonl
//
// judges paired runs of the repository benchmark instead (see pairs.go
// and `make bench-pair`): one result line of `go run -C bench .` per run
// and side, metric directions and bounds from -benchmark.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// mode is the union of the per-mode fields of every bench schema; absent
// fields decode to zero and are simply not compared.
type mode struct {
	Workers      int     `json:"workers"`
	NsPerDay     float64 `json:"ns_per_day"`
	NsPerQuery   float64 `json:"ns_per_query"`
	AllocsPerDay float64 `json:"allocs_per_day"`
}

// report is the shared envelope of the BENCH_*.json records.
type report struct {
	Bench      string `json:"bench"`
	Config     string `json:"config"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Modes      []mode `json:"modes"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(errw)
	oldPath := fs.String("old", "", "baseline report JSON (typically the committed BENCH_*.json)")
	newPath := fs.String("new", "", "candidate report JSON to compare against the baseline")
	maxRegress := fs.Float64("max-regress", 10, "maximum tolerated time regression, percent")
	pairs := fs.Bool("pairs", false, "compare paired benchmark runs: benchdiff -pairs OLD.jsonl NEW.jsonl")
	specPath := fs.String("benchmark", "BENCHMARK.json", "with -pairs: the benchmark declaration (metric directions and bounds)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *pairs {
		if fs.NArg() != 2 {
			fmt.Fprintln(errw, "benchdiff: -pairs takes two files: OLD.jsonl NEW.jsonl")
			return 2
		}
		return runPairs(*specPath, fs.Arg(0), fs.Arg(1), out, errw)
	}
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(errw, "benchdiff: both -old and -new are required")
		fs.Usage()
		return 2
	}
	oldRep, err := load(*oldPath)
	if err != nil {
		fmt.Fprintf(errw, "benchdiff: %v\n", err)
		return 2
	}
	newRep, err := load(*newPath)
	if err != nil {
		fmt.Fprintf(errw, "benchdiff: %v\n", err)
		return 2
	}
	if oldRep.Bench != newRep.Bench {
		fmt.Fprintf(errw, "benchdiff: schema mismatch: old is %q, new is %q\n", oldRep.Bench, newRep.Bench)
		return 2
	}
	var metric string
	var value func(m *mode) float64
	switch oldRep.Bench {
	case "dayloop":
		metric, value = "ns/day", func(m *mode) float64 { return m.NsPerDay }
	case "serving":
		metric, value = "ns/query", func(m *mode) float64 { return m.NsPerQuery }
	default:
		fmt.Fprintf(errw, "benchdiff: unsupported bench schema %q\n", oldRep.Bench)
		return 2
	}
	if oldRep.GOMAXPROCS != newRep.GOMAXPROCS {
		fmt.Fprintf(out, "note: GOMAXPROCS differs (old %d, new %d) — deltas reflect the host as much as the code\n",
			oldRep.GOMAXPROCS, newRep.GOMAXPROCS)
	}

	compared := 0
	failed := false
	for i := range newRep.Modes {
		nm := &newRep.Modes[i]
		om := findMode(oldRep.Modes, nm.Workers)
		if om == nil {
			fmt.Fprintf(out, "workers=%d: no baseline mode, skipped\n", nm.Workers)
			continue
		}
		oldV, newV := value(om), value(nm)
		if oldV <= 0 || newV <= 0 {
			fmt.Fprintf(out, "workers=%d: %s missing in one record, skipped\n", nm.Workers, metric)
			continue
		}
		compared++
		delta := (newV - oldV) / oldV * 100
		verdict := "ok"
		if delta > *maxRegress {
			verdict = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(out, "workers=%d: %s %.0f -> %.0f (%+.1f%%) %s\n", nm.Workers, metric, oldV, newV, delta, verdict)
		if om.AllocsPerDay > 0 && nm.AllocsPerDay > 0 {
			ad := (nm.AllocsPerDay - om.AllocsPerDay) / om.AllocsPerDay * 100
			fmt.Fprintf(out, "workers=%d: allocs/day %.0f -> %.0f (%+.1f%%) advisory\n",
				nm.Workers, om.AllocsPerDay, nm.AllocsPerDay, ad)
		}
	}
	if compared == 0 {
		// A diff that compared nothing must not read as a pass.
		fmt.Fprintln(errw, "benchdiff: no comparable modes between the two records")
		return 2
	}
	if failed {
		fmt.Fprintf(out, "FAIL: %s regressed more than %.1f%%\n", metric, *maxRegress)
		return 1
	}
	fmt.Fprintf(out, "PASS: no %s regression beyond %.1f%% across %d mode(s)\n", metric, *maxRegress, compared)
	return 0
}

func load(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Bench == "" {
		return nil, fmt.Errorf("%s: no \"bench\" field — not a bench report", path)
	}
	return &r, nil
}

func findMode(ms []mode, workers int) *mode {
	for i := range ms {
		if ms[i].Workers == workers {
			return &ms[i]
		}
	}
	return nil
}
