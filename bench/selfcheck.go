package main

import (
	"fmt"
	"io"
	"math"

	"repro/internal/stats"
)

// selfcheckRuns is the size of each of the two sets.
const selfcheckRuns = 3

// selfcheck runs the current tree twice over — two sets of
// selfcheckRuns runs per workload, each run its own seed — and fails
// if, for any end-to-end metric on any workload, the two sets' medians
// differ by more than the metric's bound.
// It prints every metric's spread (inter-quartile distance over the
// median, across both sets) beside the bound.
func selfcheck(o options, stdout io.Writer) error {
	o.trace = false
	header(stdout, o)
	fmt.Fprintf(stdout, "%-14s %-12s %14s %14s %9s %8s %7s\n", "workload", "metric", "median_a", "median_b", "worse_by", "spread", "bound")
	bad := 0
	for _, name := range o.workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*selfcheckRuns; i++ {
			// Both sets see the same seeds, interleaved, so a drift of the
			// host over the minutes this takes lands on both.
			res, err := child(o, name, o.seed+uint64(i/2))
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("bench: %s: %d of %d checks failed", name, res.Failed, res.Attempted)
			}
			for k, m := range res.Metrics {
				sets[i%2][k] = append(sets[i%2][k], m.Value)
			}
		}
		for _, d := range endToEnd {
			a, b := stats.Median(sets[0][d.name]), stats.Median(sets[1][d.name])
			worse := ratio(b-a, a)
			if d.better == "higher" {
				worse = ratio(a-b, a)
			}
			verdict := ""
			if math.Abs(worse) > d.bound { // either way: the two sets ran the same code
				verdict = "  FAIL"
				bad++
			}
			all := append(append([]float64(nil), sets[0][d.name]...), sets[1][d.name]...)
			fmt.Fprintf(stdout, "%-14s %-12s %14.4f %14.4f %8.1f%% %7.1f%% %6.0f%%%s\n",
				name, d.name, a, b, 100*worse, 100*spread(all), 100*d.bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("bench: selfcheck: %d metric(s) moved by more than their bound between two sets of the same code", bad)
	}
	return nil
}
