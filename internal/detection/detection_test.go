package detection

import (
	"testing"

	"repro/internal/adcopy"
	"repro/internal/dataset"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/verticals"
)

// world builds a platform + collector + pipeline with the given config.
func world(t *testing.T, cfg Config, seed uint64, horizon simclock.Day) (*platform.Platform, *dataset.Collector, *Pipeline) {
	t.Helper()
	p := platform.New()
	col := dataset.NewCollector(nil, simclock.Window{})
	return p, col, New(cfg, stats.NewRNG(seed), p, dataset.NewReplayer(col), horizon)
}

func fraudDet(v verticals.Vertical) Detectability {
	return Detectability{
		PageRisk: 0.5, TextRisk: 0.7, Blend: 0.2,
		Vertical: v, Target: market.US, Fraud: true,
	}
}

func legitDet() Detectability {
	return Detectability{
		PageRisk: 0.01, TextRisk: 1, Blend: 0.95,
		Vertical: "insurance", Target: market.US, Fraud: false,
	}
}

// enrollActive registers, screens past, approves and enrolls one account.
func enrollActive(t *testing.T, p *platform.Platform, d *Pipeline, det Detectability, at simclock.Stamp) platform.AccountID {
	t.Helper()
	acct := p.Register(platform.RegistrationRequest{
		At: at, Country: det.Target, Fraud: det.Fraud,
		PrimaryVertical: det.Vertical, StolenPayment: det.Fraud,
	})
	if err := p.Approve(acct.ID); err != nil {
		t.Fatal(err)
	}
	d.Enroll(acct.ID, det, at)
	return acct.ID
}

func giveAd(t *testing.T, p *platform.Platform, id platform.AccountID, at simclock.Stamp) {
	t.Helper()
	if _, err := p.CreateAd(id, p.MustAccount(id).PrimaryVertical, market.US,
		adcopy.Creative{}, 0.5, at); err != nil {
		t.Fatal(err)
	}
}

func TestScreeningRejectsFraudAtConfiguredRate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ScreenRejectStart = 0.3
	cfg.ScreenRejectEnd = 0.3
	p, col, d := world(t, cfg, 1, 720)
	rejected := 0
	const n = 5000
	for i := 0; i < n; i++ {
		acct := p.Register(platform.RegistrationRequest{At: 0, Country: market.US, Fraud: true, PrimaryVertical: verticals.Downloads})
		if !d.Screen(acct.ID, fraudDet(verticals.Downloads), 0) {
			rejected++
		}
	}
	share := float64(rejected) / n
	if share < 0.25 || share > 0.35 {
		t.Fatalf("fraud rejection rate %v, want ~0.3", share)
	}
	if len(col.Detections()) != rejected {
		t.Fatal("rejections not recorded as detections")
	}
	for _, rec := range col.Detections() {
		if rec.Stage != dataset.StageScreening {
			t.Fatal("wrong stage on screening record")
		}
	}
}

func TestScreeningRarelyRejectsLegit(t *testing.T) {
	p, _, d := world(t, DefaultConfig(), 2, 720)
	rejected := 0
	const n = 5000
	for i := 0; i < n; i++ {
		acct := p.Register(platform.RegistrationRequest{At: 0, Country: market.US, PrimaryVertical: "insurance"})
		if !d.Screen(acct.ID, legitDet(), 0) {
			rejected++
		}
	}
	if rejected > n/100 {
		t.Fatalf("legit rejection rate too high: %d/%d", rejected, n)
	}
}

func TestPostAdHazardKillsActiveFraudFast(t *testing.T) {
	p, col, d := world(t, DefaultConfig(), 3, 720)
	var ids []platform.AccountID
	for i := 0; i < 400; i++ {
		id := enrollActive(t, p, d, fraudDet(verticals.Downloads), simclock.StampAt(0, 0.1))
		giveAd(t, p, id, simclock.StampAt(0, 0.2))
		ids = append(ids, id)
	}
	for day := simclock.Day(0); day < 60; day++ {
		d.EndOfDay(day)
	}
	detected := 0
	var lifetimes []float64
	for _, id := range ids {
		if at, ok := col.DetectedAt(id); ok {
			detected++
			lifetimes = append(lifetimes, at.DaysSince(p.MustAccount(id).FirstAdAt))
		}
	}
	if detected < 350 {
		t.Fatalf("only %d/400 active fraud detected in 60 days", detected)
	}
	med := stats.Median(lifetimes)
	if med > 2.5 {
		t.Fatalf("median post-ad lifetime %v days, want ~sub-day to low single digits", med)
	}
}

func TestLegitRarelyShutDown(t *testing.T) {
	p, col, d := world(t, DefaultConfig(), 4, 720)
	var ids []platform.AccountID
	for i := 0; i < 500; i++ {
		id := enrollActive(t, p, d, legitDet(), simclock.StampAt(0, 0.1))
		giveAd(t, p, id, simclock.StampAt(0, 0.2))
		ids = append(ids, id)
	}
	for day := simclock.Day(0); day < 120; day++ {
		for _, id := range ids {
			p.MustAccount(id).Impressions += 100 // ordinary volume
		}
		d.EndOfDay(day)
	}
	hit := 0
	for _, id := range ids {
		if _, ok := col.DetectedAt(id); ok {
			hit++
		}
	}
	if hit > 10 {
		t.Fatalf("friendly fire too high: %d/500", hit)
	}
}

func TestRateAnomalyCatchesLowBlendFastServing(t *testing.T) {
	cfg := DefaultConfig()
	// Disable the base hazard so only the rate detector can fire.
	cfg.PreAdHazardProb = 0
	cfg.BaseMedianDays = 1e9
	cfg.ProlificMedianDays = 1e9
	cfg.BlacklistBase = 0
	cfg.PhoneDetectProb = 0
	cfg.PhoneEvadedProb = 0
	cfg.ComplaintPerClick = 0
	cfg.PaymentExposure = 1e18
	p, col, d := world(t, cfg, 5, 720)

	fast := enrollActive(t, p, d, Detectability{Blend: 0.1, TextRisk: 0, Vertical: verticals.Downloads, Target: market.US, Fraud: true}, 0)
	blended := enrollActive(t, p, d, Detectability{Blend: 0.97, TextRisk: 0, Vertical: verticals.Downloads, Target: market.US, Fraud: true}, 0)
	slow := enrollActive(t, p, d, Detectability{Blend: 0.1, TextRisk: 0, Vertical: verticals.Downloads, Target: market.US, Fraud: true}, 0)
	giveAd(t, p, fast, 0)
	giveAd(t, p, blended, 0)
	giveAd(t, p, slow, 0)

	for day := simclock.Day(0); day < 30; day++ {
		p.MustAccount(fast).Impressions += 5000
		p.MustAccount(blended).Impressions += 5000
		p.MustAccount(slow).Impressions += 50
		d.EndOfDay(day)
	}
	if _, ok := col.DetectedAt(fast); !ok {
		t.Fatal("high-rate low-blend account evaded the rate detector")
	}
	if _, ok := col.DetectedAt(slow); ok {
		t.Fatal("low-rate account caught by rate detector")
	}
	if at, ok := col.DetectedAt(blended); ok {
		// Blending should at minimum delay detection well past the
		// low-blend account's.
		fastAt, _ := col.DetectedAt(fast)
		if at.DaysSince(fastAt) < 2 {
			t.Fatalf("blended account caught nearly as fast (%v vs %v)", at, fastAt)
		}
	}
}

func TestPaymentFraudDetection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PreAdHazardProb = 0
	cfg.BaseMedianDays = 1e9
	cfg.ProlificMedianDays = 1e9
	cfg.BlacklistBase = 0
	cfg.PhoneDetectProb = 0
	cfg.PhoneEvadedProb = 0
	cfg.ComplaintPerClick = 0
	cfg.PaymentExposure = 10
	cfg.PaymentLatencyMean = 3
	p, col, d := world(t, cfg, 6, 720)
	id := enrollActive(t, p, d, Detectability{Blend: 0.9, Vertical: verticals.Luxury, Target: market.US, Fraud: true}, 0)
	giveAd(t, p, id, 0)
	for day := simclock.Day(0); day < 90; day++ {
		p.Bill(id, 1.0) // stolen instrument: exposure grows daily
		d.EndOfDay(day)
		if !p.MustAccount(id).Alive() {
			break
		}
	}
	at, ok := col.DetectedAt(id)
	if !ok {
		t.Fatal("payment fraud never detected")
	}
	if at.Day() < 10 {
		t.Fatalf("payment detection before exposure threshold: day %d", at.Day())
	}
	recs := col.Detections()
	if recs[len(recs)-1].Stage != dataset.StagePayment {
		t.Fatalf("stage %s, want payment", recs[len(recs)-1].Stage)
	}
}

func TestComplaintsAccumulate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PreAdHazardProb = 0
	cfg.BaseMedianDays = 1e9
	cfg.ProlificMedianDays = 1e9
	cfg.BlacklistBase = 0
	cfg.PhoneDetectProb = 0
	cfg.PhoneEvadedProb = 0
	cfg.PaymentExposure = 1e18
	cfg.ComplaintPerClick = 0.1
	cfg.ComplaintThreshold = 10
	p, col, d := world(t, cfg, 7, 720)
	scammy := enrollActive(t, p, d, Detectability{PageRisk: 0.9, Blend: 0.9, Vertical: verticals.Wrinkles, Target: market.US, Fraud: true}, 0)
	clean := enrollActive(t, p, d, Detectability{PageRisk: 0.0, Blend: 0.9, Vertical: verticals.Wrinkles, Target: market.US, Fraud: true}, 0)
	giveAd(t, p, scammy, 0)
	giveAd(t, p, clean, 0)
	for day := simclock.Day(0); day < 60; day++ {
		if p.MustAccount(scammy).Alive() {
			p.MustAccount(scammy).Clicks += 20
		}
		p.MustAccount(clean).Clicks += 20
		d.EndOfDay(day)
	}
	if _, ok := col.DetectedAt(scammy); !ok {
		t.Fatal("scammy account never detected via complaints")
	}
	if _, ok := col.DetectedAt(clean); ok {
		t.Fatal("complaint detector fired on zero-page-risk account")
	}
}

func TestPhonePatternDetector(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PreAdHazardProb = 0
	cfg.BaseMedianDays = 1e9
	cfg.ProlificMedianDays = 1e9
	cfg.ComplaintPerClick = 0
	cfg.PaymentExposure = 1e18
	cfg.TechSupportBanDay = 100000
	p, col, d := world(t, cfg, 8, 720)
	plain := fraudDet(verticals.TechSupport)
	plain.HasPhoneAds = true
	plain.TextRisk = 0.9 // no obfuscation
	evaded := fraudDet(verticals.TechSupport)
	evaded.HasPhoneAds = true
	evaded.TextRisk = 0.1 // obfuscated numbers

	var plainIDs, evadedIDs []platform.AccountID
	for i := 0; i < 200; i++ {
		id := enrollActive(t, p, d, plain, 0)
		giveAd(t, p, id, 0)
		plainIDs = append(plainIDs, id)
		id2 := enrollActive(t, p, d, evaded, 0)
		giveAd(t, p, id2, 0)
		evadedIDs = append(evadedIDs, id2)
	}
	for day := simclock.Day(0); day < 90; day++ {
		for _, id := range append(append([]platform.AccountID{}, plainIDs...), evadedIDs...) {
			if p.MustAccount(id).Alive() {
				p.MustAccount(id).Impressions += 10
			}
		}
		d.EndOfDay(day)
	}
	mean := func(ids []platform.AccountID) (float64, int) {
		var sum float64
		n := 0
		for _, id := range ids {
			if at, ok := col.DetectedAt(id); ok {
				sum += float64(at)
				n++
			}
		}
		if n == 0 {
			return 0, 0
		}
		return sum / float64(n), n
	}
	plainMean, plainN := mean(plainIDs)
	evadedMean, evadedN := mean(evadedIDs)
	if plainN < 150 {
		t.Fatalf("only %d/200 plain phone accounts detected", plainN)
	}
	if evadedN > 0 && evadedMean <= plainMean {
		t.Fatalf("obfuscation did not delay detection: plain mean day %.1f, evaded %.1f",
			plainMean, evadedMean)
	}
}

func TestTechSupportPolicyBan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PreAdHazardProb = 0
	cfg.BaseMedianDays = 1e9
	cfg.ProlificMedianDays = 1e9
	cfg.BlacklistBase = 0
	cfg.PhoneDetectProb = 0
	cfg.PhoneEvadedProb = 0
	cfg.ComplaintPerClick = 0
	cfg.PaymentExposure = 1e18
	cfg.TechSupportBanDay = 30
	cfg.PolicySweepMean = 2
	p, col, d := world(t, cfg, 9, 720)
	det := fraudDet(verticals.TechSupport)
	det.HasPhoneAds = true
	pre := enrollActive(t, p, d, det, simclock.StampAt(0, 0.5))
	giveAd(t, p, pre, simclock.StampAt(0, 0.6))
	for day := simclock.Day(0); day < 29; day++ {
		p.MustAccount(pre).Impressions += 10
		d.EndOfDay(day)
	}
	if _, ok := col.DetectedAt(pre); ok {
		t.Fatal("techsupport account detected before the ban with all detectors off")
	}
	// Post-ban arrival is policy-flagged at enrollment.
	post := enrollActive(t, p, d, det, simclock.StampAt(31, 0.1))
	giveAd(t, p, post, simclock.StampAt(31, 0.2))
	for day := simclock.Day(29); day < 60; day++ {
		d.EndOfDay(day)
	}
	preAt, ok := col.DetectedAt(pre)
	if !ok {
		t.Fatal("pre-ban techsupport account survived the policy sweep")
	}
	if preAt.Day() < 30 {
		t.Fatalf("policy sweep fired before the ban day: %v", preAt)
	}
	if _, ok := col.DetectedAt(post); !ok {
		t.Fatal("post-ban techsupport arrival survived")
	}
	found := false
	for _, rec := range col.Detections() {
		if rec.Stage == dataset.StagePolicy {
			found = true
		}
	}
	if !found {
		t.Fatal("no policy-stage detections recorded")
	}
}

func TestImprovementShortensDetection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlowTailProb = 0
	earlyMed, lateMed := medianLifetimes(t, cfg, 10)
	if lateMed >= earlyMed {
		t.Fatalf("detection did not improve over time: early %v, late %v", earlyMed, lateMed)
	}
}

// medianLifetimes measures median post-ad fraud lifetime for cohorts
// enrolled at the start and near the end of the horizon.
func medianLifetimes(t *testing.T, cfg Config, seed uint64) (early, late float64) {
	t.Helper()
	for _, start := range []simclock.Day{0, 700} {
		p, col, d := world(t, cfg, seed, 720)
		var ids []platform.AccountID
		for i := 0; i < 500; i++ {
			id := enrollActive(t, p, d, fraudDet(verticals.Downloads), simclock.StampAt(start, 0.1))
			giveAd(t, p, id, simclock.StampAt(start, 0.2))
			ids = append(ids, id)
		}
		for day := start; day < start+100; day++ {
			d.EndOfDay(day)
		}
		var ls []float64
		for _, id := range ids {
			if at, ok := col.DetectedAt(id); ok {
				ls = append(ls, at.DaysSince(p.MustAccount(id).FirstAdAt))
			}
		}
		if start == 0 {
			early = stats.Median(ls)
		} else {
			late = stats.Median(ls)
		}
	}
	return early, late
}

func TestMonitoredBookkeeping(t *testing.T) {
	p, _, d := world(t, DefaultConfig(), 11, 720)
	id := enrollActive(t, p, d, legitDet(), 0)
	if d.Monitored() != 1 {
		t.Fatalf("monitored %d", d.Monitored())
	}
	// External shutdown: the sweep must drop the state.
	if err := p.Shutdown(id, simclock.StampAt(1, 0), "external"); err != nil {
		t.Fatal(err)
	}
	d.EndOfDay(1)
	if d.Monitored() != 0 {
		t.Fatalf("monitored %d after external shutdown", d.Monitored())
	}
}

func TestBrazilDetectionSlower(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlowTailProb = 0
	lifetime := func(c market.Country, seed uint64) float64 {
		p, col, d := world(t, cfg, seed, 720)
		var ids []platform.AccountID
		for i := 0; i < 600; i++ {
			det := fraudDet(verticals.Luxury)
			det.Target = c
			id := enrollActive(t, p, d, det, simclock.StampAt(0, 0.1))
			giveAd(t, p, id, simclock.StampAt(0, 0.2))
			ids = append(ids, id)
		}
		for day := simclock.Day(0); day < 120; day++ {
			d.EndOfDay(day)
		}
		var ls []float64
		for _, id := range ids {
			if at, ok := col.DetectedAt(id); ok {
				ls = append(ls, at.DaysSince(p.MustAccount(id).FirstAdAt))
			}
		}
		return stats.Median(ls)
	}
	us := lifetime(market.US, 12)
	br := lifetime(market.BR, 12)
	if br <= us {
		t.Fatalf("BR-targeted fraud not longer-lived: US %v, BR %v", us, br)
	}
}

func TestRecidivistsScreenedHarder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ScreenRejectStart = 0.25
	cfg.ScreenRejectEnd = 0.25
	reject := func(gen int) float64 {
		p, _, d := world(t, cfg, 30, 720)
		det := fraudDet(verticals.Downloads)
		det.Generation = gen
		n := 0
		const trials = 4000
		for i := 0; i < trials; i++ {
			acct := p.Register(platform.RegistrationRequest{At: 0, Country: market.US, Fraud: true, PrimaryVertical: verticals.Downloads})
			if !d.Screen(acct.ID, det, 0) {
				n++
			}
		}
		return float64(n) / trials
	}
	fresh := reject(0)
	burned := reject(2)
	if burned <= fresh*1.5 {
		t.Fatalf("repeat offenders not screened harder: gen0=%v gen2=%v", fresh, burned)
	}
}

func TestRecidivistsDetectedFaster(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlowTailProb = 0
	lifetime := func(gen int) float64 {
		p, col, d := world(t, cfg, 31, 720)
		det := fraudDet(verticals.Downloads)
		det.Generation = gen
		var ids []platform.AccountID
		for i := 0; i < 500; i++ {
			id := enrollActive(t, p, d, det, simclock.StampAt(0, 0.1))
			giveAd(t, p, id, simclock.StampAt(0, 0.2))
			ids = append(ids, id)
		}
		for day := simclock.Day(0); day < 60; day++ {
			d.EndOfDay(day)
		}
		var ls []float64
		for _, id := range ids {
			if at, ok := col.DetectedAt(id); ok {
				ls = append(ls, at.DaysSince(p.MustAccount(id).FirstAdAt))
			}
		}
		return stats.Median(ls)
	}
	if g0, g2 := lifetime(0), lifetime(2); g2 >= g0 {
		t.Fatalf("burned identities not detected faster: gen0=%v gen2=%v", g0, g2)
	}
}
