// Command adbench runs a synthetic-traffic scenario against a routed
// adserver cluster and emits a machine-readable report: it boots N
// instances over one shared frozen platform, puts the policy-driven
// router in front, fires the scenario's seeded open-loop schedule at
// it, and prints per-class latency/shed/error metrics plus router and
// per-backend counters as JSON.
//
// Usage:
//
//	adbench -scenario cmd/adbench/testdata/scenario_slow_backend.json -out report.json
//	adbench -scenario spec.json -normalize        # strip wall-time fields
//	adbench -scenario spec.json -policy affinity  # override the spec's policy
//
// With -normalize the report contains only fields that are pure
// functions of the scenario seed, so two runs of the same spec are
// byte-identical — the property the golden suite pins.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/loadgen"
	"repro/internal/router"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "adbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("adbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenarioPath = fs.String("scenario", "", "path to the scenario spec JSON (required)")
		outPath      = fs.String("out", "", "write the report here instead of stdout")
		normalize    = fs.Bool("normalize", false, "zero wall-time-derived fields (byte-identical across runs)")
		policy       = fs.String("policy", "", "override the spec's routing policy")
		seed         = fs.Uint64("seed", 0, "override the spec's seed (0 = use spec)")
		instances    = fs.Int("instances", 0, "override the spec's instance count (0 = use spec)")
		quiet        = fs.Bool("quiet", false, "suppress progress output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scenarioPath == "" {
		fs.Usage()
		return fmt.Errorf("-scenario is required")
	}

	spec, err := loadgen.LoadScenario(*scenarioPath)
	if err != nil {
		return err
	}
	if *policy != "" {
		if _, ok := router.PolicyByName(*policy); !ok {
			return fmt.Errorf("unknown policy %q", *policy)
		}
		spec.Policy = *policy
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	if *instances < 0 {
		return fmt.Errorf("-instances must be >= 0, got %d", *instances)
	}
	if *instances > 0 {
		spec.Instances = *instances
	}

	logf := func(format string, a ...interface{}) { fmt.Fprintf(stderr, format+"\n", a...) }
	if *quiet {
		logf = nil
	}
	rep, err := loadgen.RunScenario(spec, logf)
	if err != nil {
		return err
	}
	if *normalize {
		rep = rep.Normalize()
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *outPath != "" {
		return os.WriteFile(*outPath, b, 0o644)
	}
	_, err = stdout.Write(b)
	return err
}
