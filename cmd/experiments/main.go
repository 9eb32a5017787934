// Command experiments regenerates every table and figure from the paper's
// evaluation against a simulated two-year dataset, printing the same rows
// and series the paper reports alongside the paper's own numbers.
//
// Usage:
//
//	experiments [-scale small|medium|full] [-seed N] [-subset N]
//	            [-days N] [-queries N] [-regs F]
//	            [-run id[,id...]] [-list] [-v] [-md FILE] [-svg DIR]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/report"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "medium", "simulation scale: small, medium, or full")
	seed := fs.Uint64("seed", 42, "simulation seed")
	subset := fs.Int("subset", 3000, "target subset size (the paper uses ~10,000)")
	days := fs.Int("days", 0, "override simulated days (0 = scale default)")
	queries := fs.Int("queries", 0, "override queries per day (0 = scale default)")
	regs := fs.Float64("regs", 0, "override registrations per day (0 = scale default)")
	runIDs := fs.String("run", "", "comma-separated experiment IDs (default: all)")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	verbose := fs.Bool("v", false, "print simulation progress")
	md := fs.String("md", "", "also write results as a markdown report to this file")
	svg := fs.String("svg", "", "also write rendered figures as SVG files into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range report.All() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}

	cfg, err := sim.Shape{Scale: *scale, Seed: *seed, Days: *days, Queries: *queries, Regs: *regs}.Config()
	if err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	// Validate experiment IDs before the simulation runs: a typo must
	// fail in milliseconds, not after minutes of simulated traffic.
	wanted, err := parseRunIDs(*runIDs)
	if err != nil {
		return err
	}

	fmt.Fprintf(stderr, "simulating %d days at %d queries/day...\n", cfg.Days, cfg.QueriesPerDay)
	s := sim.New(cfg)
	if *verbose {
		s.SetProgress(func(line string) { fmt.Fprintln(stderr, line) })
	}
	res := s.Run()
	fmt.Fprintf(stderr, "done in %s; building subsets...\n", res.Elapsed.Round(1e7))
	env := report.NewEnv(res, *subset, *seed^0x5eed)
	var outputs []*report.Output
	for _, e := range report.All() {
		if wanted != nil && !wanted[e.ID] {
			continue
		}
		out := e.Run(env)
		fmt.Fprintln(stdout, out.String())
		outputs = append(outputs, out)
	}
	if *md != "" {
		if err := writeMarkdown(*md, cfg, res, outputs); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "markdown report written to %s\n", *md)
	}
	if *svg != "" {
		n, err := writeSVGs(*svg, outputs)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "%d SVG figures written to %s\n", n, *svg)
	}
	return nil
}

// parseRunIDs validates a comma-separated -run list against the
// experiment registry up front. A nil map means "run everything".
func parseRunIDs(runIDs string) (map[string]bool, error) {
	if runIDs == "" {
		return nil, nil
	}
	valid := make(map[string]bool)
	for _, e := range report.All() {
		valid[e.ID] = true
	}
	wanted := map[string]bool{}
	for _, id := range strings.Split(runIDs, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if !valid[id] {
			return nil, fmt.Errorf("experiments: unknown experiment ID %q; use -list to see IDs", id)
		}
		wanted[id] = true
	}
	if len(wanted) == 0 {
		return nil, fmt.Errorf("experiments: -run given but no IDs parsed; use -list to see IDs")
	}
	return wanted, nil
}

// writeSVGs dumps every rendered figure document to dir.
func writeSVGs(dir string, outputs []*report.Output) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	n := 0
	for _, out := range outputs {
		for name, content := range out.SVGs {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// writeMarkdown renders the experiment outputs as a paper-vs-measured
// markdown report (the format of EXPERIMENTS.md).
func writeMarkdown(path string, cfg sim.Config, res *sim.Result, outputs []*report.Output) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# Experiment results\n\n")
	fmt.Fprintf(w, "Simulation: seed=%d days=%d queries/day=%d regs/day=%g — %d registrations (%d fraud), %d auctions, %d clicks (%d fraud), elapsed %s.\n\n",
		cfg.Seed, cfg.Days, cfg.QueriesPerDay, cfg.RegistrationsPerDay,
		res.Registrations, res.FraudRegistrations, res.Auctions, res.Clicks, res.FraudClicks,
		res.Elapsed.Round(1e7))
	for _, out := range outputs {
		fmt.Fprintf(w, "## %s — %s\n\n", out.ID, out.Title)
		if out.Paper != "" {
			fmt.Fprintf(w, "**Paper:** %s\n\n", out.Paper)
		}
		fmt.Fprintf(w, "```\n")
		for _, l := range out.Lines {
			fmt.Fprintln(w, l)
		}
		fmt.Fprintf(w, "```\n\n")
		if len(out.Metrics) > 0 {
			fmt.Fprintf(w, "| metric | measured |\n|---|---|\n")
			keys := make([]string, 0, len(out.Metrics))
			for k := range out.Metrics {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "| %s | %.4g |\n", k, out.Metrics[k])
			}
			fmt.Fprintf(w, "\n")
		}
	}
	return w.Flush()
}
