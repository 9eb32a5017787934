package sim_test

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// goldenConfig is the pinned configuration behind the golden fixtures
// under testdata/. Changing ANY of these values invalidates the fixtures;
// regenerate with `make golden` and justify the behavioral change in the
// commit message (see internal/testutil/README.md).
func goldenConfig() sim.Config {
	cfg := sim.SmallConfig()
	cfg.Seed = 7
	cfg.Days = 120
	cfg.QueriesPerDay = 800
	cfg.RegistrationsPerDay = 10
	cfg.InitialLegit = 250
	return cfg
}

// goldenResult is the golden world's recorded result (record_test.go).
func goldenResult(t *testing.T) *sim.Result {
	t.Helper()
	return goldenWorld.record(t).res
}

// TestGoldenDatasetDigest pins the full dataset fingerprint: accounts,
// weekly activity, window aggregates, sample-window click counters,
// billing ledger, and detection records. Any behavioral drift in the
// engine or its substrates shows up here as a hash mismatch.
func TestGoldenDatasetDigest(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	d := testutil.DigestResult(goldenResult(t))
	testutil.GoldenJSON(t, filepath.Join("testdata", "tiny_seed7_digest.golden.json"), d)
}

// TestGoldenHeadlineCounters pins the run's headline counters separately
// from the hashes, so a drifting digest immediately shows which totals
// moved (or that none did, pointing at a record-level change).
func TestGoldenHeadlineCounters(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	c := testutil.CountersOf(goldenResult(t))
	testutil.GoldenJSON(t, filepath.Join("testdata", "tiny_seed7_counters.golden.json"), c)
}

// TestGoldenCompanionInvariants is the companion invariant suite for the
// two goldens above (every golden test must have one): conservation laws
// that hold for ANY valid run, not just the pinned one. They are checked
// here on every recorded world and on the crash sweeps' baseline, and
// follow checks them on every variant run. If a regenerated golden ever
// violates these, the new behavior is wrong no matter what the fixtures
// say.
func TestGoldenCompanionInvariants(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("records every world")
	}
	for _, w := range allWorlds {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			if err := w.record(t).laws; err != nil {
				t.Error(err)
			}
		})
	}
	t.Run("crash-baseline", func(t *testing.T) {
		t.Parallel()
		baselineDigests(t)
		if err := crashBaseline.laws; err != nil {
			t.Error(err)
		}
	})
}

// companionLaws checks the conservation laws on one finished run and
// returns every violation.
func companionLaws(res *sim.Result) error {
	return errors.Join(clickLaw(res), spendLaw(res), liveAdsLaw(res), detectionLaw(res), weeklyLaw(res))
}

// violations collects one law's failures.
type violations []error

func (v *violations) add(format string, args ...any) { *v = append(*v, fmt.Errorf(format, args...)) }

// clickLaw: clicks never exceed impressions, globally and per account.
func clickLaw(res *sim.Result) error {
	var v violations
	if res.Clicks > res.Impressions {
		v.add("clicks (%d) exceed impressions (%d)", res.Clicks, res.Impressions)
	}
	if res.FraudClicks > res.Clicks {
		v.add("fraud clicks (%d) exceed clicks (%d)", res.FraudClicks, res.Clicks)
	}
	for _, a := range res.Platform.Accounts() {
		if a.Clicks > a.Impressions {
			v.add("account %d: clicks (%d) exceed impressions (%d)", a.ID, a.Clicks, a.Impressions)
		}
	}
	return errors.Join(v...)
}

// spendLaw: the ledger's totals are the accounts' sums — billed is all
// spend, lost is the spend on stolen instruments — and the result's
// spend; so are clicks and impressions; lost is no more than billed.
func spendLaw(res *sim.Result) error {
	var v violations
	l := res.Platform.Ledger()
	var acctSpend, acctLost float64
	var acctClicks, acctImpr int64
	for _, a := range res.Platform.Accounts() {
		acctSpend += a.Spend
		acctLost += a.Uncollected()
		acctClicks += a.Clicks
		acctImpr += a.Impressions
	}
	if !approxEqual(acctSpend, l.TotalBilled()) || !approxEqual(acctSpend, res.Spend) {
		v.add("spend not conserved: accounts=%v ledger=%v result=%v", acctSpend, l.TotalBilled(), res.Spend)
	}
	if acctClicks != res.Clicks || acctImpr != res.Impressions {
		v.add("click/impression totals not conserved: accounts=%d/%d result=%d/%d",
			acctClicks, acctImpr, res.Clicks, res.Impressions)
	}
	if lost := l.TotalLost(); lost > l.TotalBilled() || !approxEqual(lost, acctLost) {
		v.add("revenue lost inconsistent: ledger=%v stolen-instrument spend=%v billed=%v", lost, acctLost, l.TotalBilled())
	}
	return errors.Join(v...)
}

// liveAdsLaw: the platform's live-ad count is its number of active ads.
func liveAdsLaw(res *sim.Result) error {
	active := 0
	for _, a := range res.Platform.Accounts() {
		for _, ad := range a.Ads {
			if ad.Active {
				active++
			}
		}
	}
	if live := res.Platform.LiveAds(); live != active {
		return fmt.Errorf("live ads (%d) != active ads (%d)", live, active)
	}
	return nil
}

// detectionLaw: every detection record references an account the
// platform terminated, stamped no earlier than the account's creation.
func detectionLaw(res *sim.Result) error {
	var v violations
	for _, rec := range res.Collector.Detections() {
		a, err := res.Platform.Account(rec.Account)
		if err != nil {
			v.add("detection record references unknown account %d", rec.Account)
			continue
		}
		if a.Status != platform.StatusShutdown && a.Status != platform.StatusRejected {
			v.add("detection record for account %d in state %s", a.ID, a.Status)
		}
		if rec.At < a.Created {
			v.add("account %d detected (%v) before creation (%v)", a.ID, rec.At, a.Created)
		}
	}
	return errors.Join(v...)
}

// weeklyLaw: the weekly activity aggregates reproduce the result's totals.
func weeklyLaw(res *sim.Result) error {
	var wkImpr, wkClicks int64
	var wkSpend float64
	for _, a := range res.Platform.Accounts() {
		agg := res.Collector.Agg(a.ID)
		if agg == nil {
			continue
		}
		for _, w := range agg.Weeks {
			wkImpr += w.Impressions
			wkClicks += w.Clicks
			wkSpend += w.Spend
		}
	}
	if wkImpr != res.Impressions || wkClicks != res.Clicks || !approxEqual(wkSpend, res.Spend) {
		return fmt.Errorf("weekly aggregates (%d/%d/%v) != result totals (%d/%d/%v)",
			wkImpr, wkClicks, wkSpend, res.Impressions, res.Clicks, res.Spend)
	}
	return nil
}

// approxEqual compares two sums to a relative tolerance of 1e-6.
func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a+b))
}
