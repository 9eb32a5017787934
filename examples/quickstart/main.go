// Quickstart: run a small two-quarter simulation of the search-ad
// ecosystem, label advertisers from detection records the way the paper
// does (§3.2), and print the headline fraud-scale numbers.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simclock"
	"repro/internal/stats"
)

func main() {
	cfg := sim.SmallConfig()
	cfg.Seed = 1
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer, cfg sim.Config) error {
	// 1. Simulate: accounts register (a growing share fraudulent),
	// advertisers run campaigns, queries flow through the auction, and
	// the detection pipeline hunts.
	res := sim.New(cfg).Run()

	fmt.Fprintf(w, "simulated %d days: %d registrations, %d auctions, %d clicks\n",
		cfg.Days, res.Registrations, res.Auctions, res.Clicks)

	// 2. Wrap the datasets in a Study: fraud labels come from detection
	// records, never from simulation ground truth.
	study := core.NewStudy(res.Platform, res.Collector, cfg.Days)

	months := study.RegistrationFraudShare()
	fmt.Fprintln(w, "\nfraud share of new registrations by month:")
	for _, m := range months {
		fmt.Fprintf(w, "  %-6s %5.1f%%  (%d accounts)\n", m.Label, m.Share()*100, m.Registrations)
	}

	// 3. Fraud account lifetimes (Figure 2's headline numbers).
	lts := stats.NewECDF(study.Lifetimes(simclock.Window{Start: 0, End: cfg.Days}, false))
	fmt.Fprintf(w, "\nfraudulent account lifetimes: median=%.2f days, p90=%.1f days (n=%d)\n",
		lts.Median(), lts.Quantile(0.9), lts.N())
	fmt.Fprintf(w, "shutdowns before first ad: %.0f%%\n", study.PreAdShutdownShare()*100)

	// 4. Concentration of fraud success (Figure 4's headline).
	spend, clicks := study.TopShare(simclock.Y1Q2, 0, 0.10)
	fmt.Fprintf(w, "top 10%% of fraud advertisers: %.0f%% of fraud spend, %.0f%% of fraud clicks\n",
		spend*100, clicks*100)

	fmt.Fprintf(w, "\nrevenue lost to uncollectable (stolen-instrument) spend: %.0f bid-units\n",
		res.Platform.Ledger().TotalLost())
	return nil
}
