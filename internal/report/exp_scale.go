package report

import (
	"fmt"

	"repro/internal/figures"
	"repro/internal/simclock"
	"repro/internal/stats"
)

func init() {
	register("fig1", "Proportion of registrations subsequently marked fraudulent, by month", runFig1)
	register("table1", "Top-five countries of fraudulent advertisers, four subsets", runTable1)
	register("fig2", "CDF of fraudulent account lifetimes (from registration and first ad)", runFig2)
	register("fig3", "Weekly aggregate fraudulent activity, in-window vs out-of-window", runFig3)
	register("fig4", "Cumulative share of fraud spend/clicks by advertiser rank, five periods", runFig4)
}

func runFig1(env *Env) *Output {
	o := &Output{ID: "fig1", Title: "Registration fraud share over time",
		Paper: "generally more than a third — and near the end more than half — of new registrations are eventually fraudulent"}
	months := env.Study.RegistrationFraudShare()
	shares := make([]float64, 0, len(months))
	for _, m := range months {
		o.Add("%-6s regs=%-6d fraud=%-6d share=%s", m.Label, m.Registrations, m.Fraudulent, Pct(m.Share()))
		shares = append(shares, m.Share())
	}
	o.Lines = append(o.Lines, SparkSeries("fraud share by month", shares))
	if len(months) > 0 {
		// Exclude the final two right-censored months (detection of their
		// registrations is still in flight at the horizon, as in Fig. 3's
		// out-of-window discussion).
		cut := len(months) - 2
		if cut < 1 {
			cut = len(months)
		}
		first := months[0].Share()
		var minS, maxS float64 = 1, 0
		for _, m := range months[:cut] {
			s := m.Share()
			if s < minS {
				minS = s
			}
			if s > maxS {
				maxS = s
			}
		}
		o.Metric("share_first_month", first)
		o.Metric("share_last_month", months[cut-1].Share())
		o.Metric("share_min", minS)
		o.Metric("share_max", maxS)
	}
	return o
}

func runTable1(env *Env) *Output {
	o := &Output{ID: "table1", Title: "Fraud registration countries",
		Paper: "US ~50-60%, IN ~15-17%, GB ~9-14% across all four fraud subsets"}
	b := env.Primary()
	for _, sub := range b.FraudSubsets() {
		rows := env.Study.CountryDistribution(sub)
		line := fmt.Sprintf("%-16s", sub.Name)
		for i, r := range rows {
			if i >= 5 {
				break
			}
			line += fmt.Sprintf("  %s %5.1f%%", r.Country, r.Share*100)
		}
		o.Add("%s", line)
		if len(rows) > 0 {
			o.Metric("top_share_"+sub.Name, rows[0].Share)
			o.Metric("top_is_US_"+sub.Name, boolMetric(string(rows[0].Country) == "US"))
		}
	}
	return o
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func runFig2(env *Env) *Output {
	o := &Output{ID: "fig2", Title: "Fraudulent account lifetimes",
		Paper: "median < 1 day from registration; 90% of shutdowns within 4 days of first ad; Y1 and Y2 similar"}
	type series struct {
		name string
		win  simclock.Window
		ad   bool
	}
	var names []string
	var ecdfs []*stats.ECDF
	for _, s := range []series{
		{"Y1 (account)", simclock.Year1, false},
		{"Y1 (ad)", simclock.Year1, true},
		{"Y2 (account)", simclock.Year2, false},
		{"Y2 (ad)", simclock.Year2, true},
	} {
		lts := env.Study.Lifetimes(s.win, s.ad)
		names = append(names, s.name)
		ecdfs = append(ecdfs, stats.NewECDF(lts))
	}
	o.Lines = append(o.Lines, CDFRows(names, ecdfs)...)
	o.Lines = append(o.Lines, PlotCDFs(names, ecdfs, true, 64, 12)...)
	attachCDFSVG(o, "fig2.svg", "Fraudulent account lifetimes", "days", names, ecdfs, true)
	o.Metric("median_account_lifetime_y1_days", ecdfs[0].Median())
	o.Metric("median_account_lifetime_y2_days", ecdfs[2].Median())
	o.Metric("p90_ad_lifetime_y1_days", ecdfs[1].Quantile(0.90))
	o.Metric("p90_ad_lifetime_y2_days", ecdfs[3].Quantile(0.90))
	o.Metric("preads_shutdown_share", env.Study.PreAdShutdownShare())
	return o
}

func runFig3(env *Env) *Output {
	o := &Output{ID: "fig3", Title: "Weekly fraud spend and clicks, 90-day attribution",
		Paper: "in-window activity nearly halves over the study; out-of-window suggests under-reporting up to ~2x"}
	weeks := env.Study.WeeklyAttribution(90)
	if len(weeks) == 0 {
		return o
	}
	inSpend := make([]float64, len(weeks))
	outSpend := make([]float64, len(weeks))
	inClicks := make([]float64, len(weeks))
	maxSpend := 0.0
	for i, w := range weeks {
		inSpend[i] = w.InSpend
		outSpend[i] = w.OutSpend
		inClicks[i] = float64(w.InClicks)
		if w.InSpend > maxSpend {
			maxSpend = w.InSpend
		}
	}
	if maxSpend > 0 {
		for i := range inSpend {
			inSpend[i] /= maxSpend
			outSpend[i] /= maxSpend
		}
	}
	o.Lines = append(o.Lines,
		SparkSeries("in-window spend (norm)", inSpend),
		SparkSeries("out-of-window spend", outSpend),
		SparkSeries("in-window clicks", inClicks))
	weekIdx := make([]float64, len(weeks))
	for i := range weekIdx {
		weekIdx[i] = float64(i)
	}
	o.SVG("fig3.svg", figures.LinePlot("Weekly fraudulent activity (spend, normalized)", "week", "spend",
		[]figures.Series{
			{Name: "in-window", X: weekIdx, Y: inSpend},
			{Name: "out-of-window", X: weekIdx, Y: outSpend, Dashed: true},
		}))

	// Trend: mean of first vs last quarter of the in-window spend series
	// (excluding the final 13 right-censored weeks where out-of-window
	// attribution is impossible).
	usable := len(inSpend) - 13
	if usable > 8 {
		q := usable / 4
		early := stats.Mean(inSpend[:q])
		late := stats.Mean(inSpend[usable-q : usable])
		o.Metric("inwindow_spend_early_mean", early)
		o.Metric("inwindow_spend_late_mean", late)
		if early > 0 {
			o.Metric("inwindow_spend_late_over_early", late/early)
		}
	}
	totalIn, totalOut := 0.0, 0.0
	for _, w := range weeks[:max(1, len(weeks)-13)] {
		totalIn += w.InSpend
		totalOut += w.OutSpend
	}
	if totalIn > 0 {
		o.Metric("outwindow_over_inwindow_spend", totalOut/totalIn)
	}
	return o
}

func runFig4(env *Env) *Output {
	o := &Output{ID: "fig4", Title: "Concentration of fraud spend and clicks",
		Paper: "top 10% of fraud advertisers: >95% of clicks, 80-90% of spend"}
	props := []float64{0.001, 0.01, 0.05, 0.10, 0.25, 0.50, 1.0}
	for i, b := range env.Battery {
		w := b.Window
		spend, clks := env.Study.Concentration(w.Window, i, props)
		row := fmt.Sprintf("%-12s spend@10%%=%s clicks@10%%=%s", w.Name, Pct(valueAt(spend, 0.10)), Pct(valueAt(clks, 0.10)))
		o.Add("%s", row)
		if i == 0 {
			o.Metric("top10pct_spend_share", valueAt(spend, 0.10))
			o.Metric("top10pct_click_share", valueAt(clks, 0.10))
		}
	}
	return o
}

// valueAt returns the y of the point with x == p, or 0.
func valueAt(pts []stats.Point, p float64) float64 {
	for _, pt := range pts {
		if pt.X == p {
			return pt.Y
		}
	}
	return 0
}
