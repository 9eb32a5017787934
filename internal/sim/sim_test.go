package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/simclock"
	"repro/internal/stats"
)

func TestBasicVolume(t *testing.T) {
	t.Parallel()
	res := goldenResult(t)
	if res.Registrations == 0 || res.Auctions == 0 || res.Clicks == 0 {
		t.Fatalf("empty economy: %+v", res)
	}
	if res.FraudClicks == 0 {
		t.Fatal("no fraud clicks at all")
	}
	frac := float64(res.FraudRegistrations) / float64(res.Registrations)
	if frac < 0.25 || frac > 0.60 {
		t.Fatalf("fraud registration share %v outside configured ramp", frac)
	}
}

// TestLedgerConsistency, TestCollectorAgreesWithPlatform and
// TestDetectionTimesAfterCreation hold the golden world to one companion
// law each, so a failure names the law.
func TestLedgerConsistency(t *testing.T) {
	t.Parallel()
	if err := spendLaw(goldenResult(t)); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorAgreesWithPlatform(t *testing.T) {
	t.Parallel()
	if err := weeklyLaw(goldenResult(t)); err != nil {
		t.Fatal(err)
	}
}

// TestDetectionRecordsMatchAccountStates is detectionLaw's converse:
// every shutdown or rejected account has a detection record.
func TestDetectionRecordsMatchAccountStates(t *testing.T) {
	t.Parallel()
	res := goldenResult(t)
	for _, a := range res.Platform.Accounts() {
		if a.Status == platform.StatusShutdown || a.Status == platform.StatusRejected {
			if _, ok := res.Collector.DetectedAt(a.ID); !ok {
				t.Fatalf("account %d %s without detection record", a.ID, a.Status)
			}
		}
	}
}

func TestDetectionTimesAfterCreation(t *testing.T) {
	t.Parallel()
	if err := detectionLaw(goldenResult(t)); err != nil {
		t.Fatal(err)
	}
}

func TestFraudLabelsMostlyCorrect(t *testing.T) {
	t.Parallel()
	res := goldenResult(t)
	study := core.NewStudy(res.Platform, res.Collector, res.Config.Days)
	var truePos, falsePos, labelled int
	for _, a := range res.Platform.Accounts() {
		if study.IsFraudulent(a.ID) {
			labelled++
			if a.Fraud {
				truePos++
			} else {
				falsePos++
			}
		}
	}
	if labelled == 0 {
		t.Fatal("nothing labelled")
	}
	// "accounts that are entirely shutdown are overwhelmingly fraudulent,
	// with the rate of 'friendly fire' being rather low" (§3.2).
	if float64(falsePos)/float64(labelled) > 0.02 {
		t.Fatalf("friendly fire %d of %d labels", falsePos, labelled)
	}
}

func TestFraudLifetimesShort(t *testing.T) {
	t.Parallel()
	res := goldenResult(t)
	study := core.NewStudy(res.Platform, res.Collector, res.Config.Days)
	lts := study.Lifetimes(simclock.Window{Start: 0, End: 90}, false)
	if len(lts) < 50 {
		t.Fatalf("too few detected fraud accounts: %d", len(lts))
	}
	med := stats.Median(lts)
	if med > 3 {
		t.Fatalf("median fraud lifetime %v days — detection too slow", med)
	}
}

func TestImpressionRatesFraudHigher(t *testing.T) {
	t.Parallel()
	res := goldenResult(t)
	study := core.NewStudy(res.Platform, res.Collector, res.Config.Days)
	win := res.Collector.Windows()[0]
	subs := study.BuildSubsets(win, 0, 500, stats.NewRNG(5))
	rate := func(id platform.AccountID) float64 {
		return study.ImpressionRate(id, win.Window, 0)
	}
	fr := subs.FWithClicks.ECDF(rate)
	nf := subs.NFWithClicks.ECDF(rate)
	if fr.N() < 150 || nf.N() < 150 {
		t.Skipf("underpowered at tiny scale (n=%d/%d); the report harness checks this at full scale", fr.N(), nf.N())
	}
	if fr.Median() <= nf.Median() {
		t.Fatalf("fraud impression rate (%v) not above non-fraud (%v) — Figure 5 shape lost",
			fr.Median(), nf.Median())
	}
}

func TestRejectedAccountsNeverServe(t *testing.T) {
	t.Parallel()
	res := goldenResult(t)
	for _, a := range res.Platform.Accounts() {
		if a.Status == platform.StatusRejected && (a.Impressions > 0 || len(a.Ads) > 0) {
			t.Fatalf("rejected account %d served %d impressions", a.ID, a.Impressions)
		}
	}
}

func TestShutdownStopsActivity(t *testing.T) {
	t.Parallel()
	res := goldenResult(t)
	// No account's weekly activity may extend past its shutdown week.
	for _, a := range res.Platform.Accounts() {
		if a.Status != platform.StatusShutdown {
			continue
		}
		agg := res.Collector.Agg(a.ID)
		if agg == nil {
			continue
		}
		shutWeek := int32(a.ShutdownAt.Day().Week())
		for _, w := range agg.Weeks {
			if w.Week > shutWeek {
				t.Fatalf("account %d active in week %d after shutdown week %d", a.ID, w.Week, shutWeek)
			}
		}
	}
}

func TestProgressCallback(t *testing.T) {
	if testing.Short() {
		t.Skip("extra sim")
	}
	t.Parallel()
	cfg := goldenConfig()
	cfg.Seed = 3
	cfg.Days = 61
	called := 0
	s := sim.New(cfg)
	s.SetProgress(func(string) { called++ })
	s.Run()
	if called != 2 {
		t.Fatalf("progress called %d times, want 2", called)
	}
}

func TestShutdownsByStagePopulated(t *testing.T) {
	t.Parallel()
	res := goldenResult(t)
	total := 0
	for _, n := range res.ShutdownsByStage {
		total += n
	}
	if total == 0 {
		t.Fatal("no shutdowns recorded by stage")
	}
	if res.ShutdownsByStage[dataset.StageScreening] == 0 {
		t.Fatal("screening never rejected anyone")
	}
}

func TestLegitClosureKeepsEcosystemBounded(t *testing.T) {
	t.Parallel()
	res := goldenResult(t)
	closed := 0
	for _, a := range res.Platform.Accounts() {
		if a.Status == platform.StatusClosed {
			closed++
			if a.Fraud {
				t.Fatalf("ground-truth fraud account %d closed voluntarily", a.ID)
			}
			if _, ok := res.Collector.DetectedAt(a.ID); ok {
				t.Fatalf("closed account %d has a detection record", a.ID)
			}
		}
	}
	if closed == 0 {
		t.Fatal("no accounts closed over 120 days (initial population includes old accounts)")
	}
}

func TestCompromisesHappenAndGetCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("extra sim")
	}
	t.Parallel()
	cfg := goldenConfig()
	cfg.Seed = 13
	cfg.CompromisesPerDay = 0.5
	res := sim.New(cfg).Run()
	if res.Compromises == 0 {
		t.Fatal("no compromises at 0.5/day over 120 days")
	}
	// Hijacked accounts are ground-truth fraud with Generation 0 and a
	// pre-fraud history; most should be caught by the horizon.
	caught := 0
	for _, a := range res.Platform.Accounts() {
		if !a.Fraud || a.StolenPayment || a.Created >= 0 {
			// Compromised accounts in this config are mostly seeded
			// legit accounts (created < 0) flipped later; registered
			// fraud all use this path with StolenPayment sometimes, so
			// filter loosely and just count detections below.
			continue
		}
		if _, ok := res.Collector.DetectedAt(a.ID); ok {
			caught++
		}
	}
	if caught == 0 {
		t.Fatal("no compromised account was ever detected")
	}
}

// TestNewRefusesNonPositiveHorizon: New takes the horizon it is given.
// One that simulates no day panics with the error Restore returns for
// the same Config, instead of becoming the standard horizon.
func TestNewRefusesNonPositiveHorizon(t *testing.T) {
	for _, days := range []simclock.Day{0, -1} {
		cfg := sim.SmallConfig()
		cfg.Days = days
		_, err := sim.Restore(&sim.State{Config: cfg})
		if err == nil {
			t.Fatalf("Days %d: Restore accepted the horizon", days)
		}
		func() {
			defer func() {
				if got := recover(); got == nil || fmt.Sprint(got) != err.Error() {
					t.Errorf("Days %d: New panicked with %v, want %q", days, got, err)
				}
			}()
			sim.New(cfg)
		}()
	}
}
