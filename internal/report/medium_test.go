package report

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/sim"
)

// TestMediumDump runs the medium-scale simulation over the full horizon
// and writes every experiment's output to /tmp/medium_report.txt. Guarded
// by an env var: this is a calibration tool, not a CI test.
func TestMediumDump(t *testing.T) {
	if os.Getenv("MEDIUM_DUMP") == "" {
		t.Skip("set MEDIUM_DUMP=1 to run")
	}
	s := sim.New(sim.MediumConfig())
	s.SetProgress(func(line string) { fmt.Fprintln(os.Stderr, line) })
	res := s.Run()
	f, err := os.Create("/tmp/medium_report.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fmt.Fprintf(f, "regs=%d fraudRegs=%d auctions=%d impr=%d clicks=%d fraudClicks=%d spend=%.0f fraudSpend=%.0f lost=%.0f elapsed=%s\nstages=%v\n\n",
		res.Registrations, res.FraudRegistrations, res.Auctions, res.Impressions, res.Clicks, res.FraudClicks,
		res.Spend, res.FraudSpend, res.Platform.Ledger().TotalLost(), res.Elapsed, res.ShutdownsByStage)
	env := NewEnv(res, 3000, 99)
	for _, e := range All() {
		fmt.Fprintln(f, e.Run(env).String())
	}
}
