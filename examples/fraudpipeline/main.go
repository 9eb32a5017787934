// Fraudpipeline: drive the detection pipeline directly — enroll a mix of
// fraudulent and legitimate accounts, feed it synthetic activity, and
// show how lifetimes respond when the manual review queue slows down.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/adcopy"
	"repro/internal/dataset"
	"repro/internal/detection"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/verticals"
)

// runPipeline simulates 120 days of detection over a synthetic cohort and
// returns the ECDF of fraud lifetimes and the number of legitimate
// accounts incorrectly shut down.
func runPipeline(cfg detection.Config, seed uint64) (*stats.ECDF, int) {
	p := platform.New()
	col := dataset.NewCollector(nil, simclock.Window{})
	pipe := detection.New(cfg, stats.NewRNG(seed), p, dataset.NewReplayer(col), 120)
	rng := stats.NewRNG(seed ^ 0xfeed)

	type actor struct {
		id    platform.AccountID
		from  simclock.Day
		fraud bool
		rate  float64 // impressions/day the actor generates
	}
	var actors []actor
	for i := 0; i < 600; i++ {
		fraud := i%2 == 0
		startDay := simclock.Day(rng.Intn(30))
		at := simclock.StampAt(startDay, rng.Float64())
		acct := p.Register(platform.RegistrationRequest{
			At: at, Country: market.US, Fraud: fraud,
			PrimaryVertical: verticals.Downloads, StolenPayment: fraud,
		})
		det := detection.Detectability{
			PageRisk: 0.02, TextRisk: 0.6, Blend: 0.9,
			Vertical: verticals.Downloads, Target: market.US, Fraud: fraud,
		}
		if fraud {
			det.PageRisk = 0.5
			det.Blend = 0.3
		}
		if !pipe.Screen(acct.ID, det, at) {
			continue
		}
		if err := p.Approve(acct.ID); err != nil {
			panic(err)
		}
		pipe.Enroll(acct.ID, det, at)
		// Give every surviving account one ad so the post-ad hazard arms.
		rate := 30 + 250*rng.Float64()
		if fraud {
			rate = 50 + 800*rng.Float64() // fraud serves hot
		}
		if _, err := p.CreateAd(acct.ID, verticals.Downloads, market.US,
			adcopy.Creative{DisplayURL: "www.example.com"}, 0.5, at); err == nil {
			actors = append(actors, actor{acct.ID, startDay, fraud, rate})
		}
	}

	for day := simclock.Day(0); day < 120; day++ {
		for _, a := range actors {
			acct := p.MustAccount(a.id)
			if !acct.Alive() || day < a.from {
				continue
			}
			// Synthetic serving: impressions and a 3% CTR at 0.4/click.
			n := int64(a.rate)
			acct.Impressions += n
			clicks := n * 3 / 100
			for c := int64(0); c < clicks; c++ {
				p.Bill(a.id, 0.4)
			}
		}
		pipe.EndOfDay(day)
	}

	var lts []float64
	legitHit := 0
	for _, acct := range p.Accounts() {
		if _, ok := col.DetectedAt(acct.ID); !ok {
			continue
		}
		if acct.Fraud {
			lts = append(lts, acct.LifetimeFromCreation(simclock.StampAt(120, 0)))
		} else {
			legitHit++
		}
	}
	return stats.NewECDF(lts), legitHit
}

func main() {
	run(os.Stdout)
}

func run(w io.Writer) {
	fast := detection.DefaultConfig()

	slow := fast
	slow.ReviewLatencyMean = 10 // a swamped manual review queue
	slow.BaseMedianDays = 5

	for _, c := range []struct {
		name string
		cfg  detection.Config
	}{{"baseline pipeline", fast}, {"swamped review queue", slow}} {
		e, legitHit := runPipeline(c.cfg, 7)
		fmt.Fprintf(w, "%-22s fraud lifetimes: median=%5.2fd p90=%5.1fd (n=%d); friendly fire: %d\n",
			c.name, e.Median(), e.Quantile(0.9), e.N(), legitHit)
	}
	fmt.Fprintln(w, "\nSlower review directly stretches fraud lifetimes — the paper's")
	fmt.Fprintln(w, "lifetime CDF (Figure 2) is, in this model, a property of the")
	fmt.Fprintln(w, "pipeline's latency distribution, not of the fraudsters.")
}
