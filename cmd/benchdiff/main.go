// Command benchdiff judges paired runs of the repository benchmark (the
// program BENCHMARK.json declares) by the rule the merge pipeline
// applies; see pairs.go and `make bench-pair`.
//
//	benchdiff -pairs OLD.jsonl NEW.jsonl
//
// Each file holds one result line of `go run -C bench .` per run; metric
// directions and bounds come from -benchmark.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(errw)
	pairs := fs.Bool("pairs", false, "compare paired benchmark runs: benchdiff -pairs OLD.jsonl NEW.jsonl")
	specPath := fs.String("benchmark", "BENCHMARK.json", "the benchmark declaration (metric directions and bounds)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if !*pairs || fs.NArg() != 2 {
		fmt.Fprintln(errw, "benchdiff: usage: benchdiff -pairs OLD.jsonl NEW.jsonl")
		return 2
	}
	return runPairs(*specPath, fs.Arg(0), fs.Arg(1), out, errw)
}
