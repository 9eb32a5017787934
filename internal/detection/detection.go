// Package detection implements the ad network's anti-fraud pipeline: new
// account screening, a base identity/verification hazard, activity-driven
// detectors (rate anomaly, blacklists with an evasion-resistant
// canonicalizer, user complaints, payment-network chargebacks), a manual
// review queue with service latency, and a dated policy engine including
// the third-party tech-support ban whose effect dominates Figure 8.
//
// Detector sensitivity is parameterized by each account's latent
// detectability — how risky its landing pages are (complaints, crawler
// vetting), how much blacklist-evading obfuscation it uses, and how well
// its traffic pattern blends with legitimate advertisers of similar size.
// These latents stand in for signals the real pipeline derives from
// payment networks, page content and analyst review, none of which exist
// in a simulator; DESIGN.md documents the substitution. Detection *timing*
// — the quantity every lifetime and in/out-of-window analysis consumes —
// is the emergent output.
package detection

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/eventlog"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/verticals"
)

// Detectability is the latent risk surface of one account.
type Detectability struct {
	// PageRisk in [0,1]: how obviously deceptive the landing pages are;
	// drives user complaints and crawler vetting.
	PageRisk float64
	// TextRisk in [0,1]: how exposed the ad text/keywords are to
	// blacklists (1 - evasion effort).
	TextRisk float64
	// Blend in [0,1]: how well the account's traffic pattern matches
	// legitimate advertisers of similar volume. "The most successful
	// fraudulent users blend in with their non-fraudulent counterparts"
	// (§5.1).
	Blend float64
	// HasPhoneAds marks accounts whose ads carry phone numbers (the
	// techsupport monetization model), a blacklisted pattern (§5.2.4).
	HasPhoneAds bool
	// Vertical is the account's primary vertical (policy enforcement).
	Vertical verticals.Vertical
	// Target is the market the account advertises into. Detection
	// maturity varies by market — "relative tuning of detection
	// algorithms and language spoken of analysts" (§5.2.3) — so hazards
	// are scaled by the market's SuccessFactor (Brazil's under-developed
	// blacklist gives fraud there the longest runway).
	Target market.Country
	// Fraud is the latent truth; it parameterizes the base
	// identity/verification hazard that exists regardless of activity.
	Fraud bool
	// Prolific marks the well-funded fraud tier.
	Prolific bool
	// Generation counts the actor's previously-caught accounts. Each
	// enforcement action blacklists identity and payment details (§3.2),
	// so screening and review catch repeat offenders faster.
	Generation int
}

// generationFactor returns the repeat-offender multiplier, saturating
// after three burned identities.
func generationFactor(gen int) float64 {
	if gen > 3 {
		gen = 3
	}
	return float64(gen)
}

// Config holds pipeline parameters. Durations are in days; probabilities
// are per-day unless noted.
type Config struct {
	// Screening (at registration).
	ScreenRejectStart float64 // P(reject fraud) at study start
	ScreenRejectEnd   float64 // ... at study end (screening improves)
	FalseRejectProb   float64 // P(reject legit)

	// PreAdHazardProb is the probability an approved fraud account draws a
	// verification-failure detection scheduled before it is likely to post
	// ads; with screening rejections this produces the "35% of all account
	// shutdowns occur before the account is able to display even one ad"
	// mass (§4.1).
	PreAdHazardProb float64
	PreAdDelayMean  float64

	// Base review hazard for fraud accounts once they begin posting ads:
	// lognormal time-to-detection from first ad creation ("most will be
	// shut down within eight hours of beginning to post advertisements,
	// and 90% ... within four days" §4.1).
	BaseMedianDays     float64
	BaseSigma          float64
	ProlificMedianDays float64
	ProlificSigma      float64
	// SlowTail: with this probability the base detection time is
	// stretched by [SlowTailMin, SlowTailMax]×, producing the months-late
	// detections behind Figure 3's out-of-window mass.
	SlowTailProb float64
	SlowTailMin  float64
	SlowTailMax  float64
	// ImprovementEnd scales detection times at the end of the study
	// relative to the start (detection gets faster; fraud activity
	// "nearly halved during the period of study", Figure 3).
	ImprovementEnd float64

	// Rate anomaly detector.
	RateThreshold  float64 // impressions/day
	RateDetectProb float64

	// Blacklist detector.
	BlacklistBase   float64 // per-day hit probability at full text risk
	PhoneDetectProb float64 // per-day for phone-pattern ads (canonicalized)
	PhoneEvadedProb float64 // ... when the number is obfuscated

	// Complaints.
	ComplaintPerClick  float64 // complaints per (click × PageRisk)
	ComplaintThreshold float64

	// Payment fraud.
	PaymentExposure    float64 // uncollected spend triggering signals
	PaymentLatencyMean float64 // days from exposure to detection

	// Manual review queue.
	ReviewLatencyMean float64 // days from flag to shutdown

	// Legitimate-account friendly fire (lifetime probability).
	LegitFalsePositive float64

	// Policy engine.
	TechSupportBanDay simclock.Day
	PolicySweepMean   float64 // days to clear existing violators post-ban
}

// DefaultConfig returns the calibrated pipeline.
func DefaultConfig() Config {
	return Config{
		ScreenRejectStart:  0.17,
		ScreenRejectEnd:    0.38,
		FalseRejectProb:    0.002,
		PreAdHazardProb:    0.10,
		PreAdDelayMean:     0.5,
		BaseMedianDays:     0.45,
		BaseSigma:          1.6,
		ProlificMedianDays: 12,
		ProlificSigma:      1.1,
		SlowTailProb:       0.06,
		SlowTailMin:        6,
		SlowTailMax:        20,
		ImprovementEnd:     0.25,
		RateThreshold:      400,
		RateDetectProb:     0.5,
		BlacklistBase:      0.22,
		PhoneDetectProb:    0.5,
		PhoneEvadedProb:    0.18,
		ComplaintPerClick:  0.05,
		ComplaintThreshold: 6,
		PaymentExposure:    40,
		PaymentLatencyMean: 18,
		ReviewLatencyMean:  0.7,
		TechSupportBanDay:  simclock.Y2Q1.End,
		PolicySweepMean:    4,
	}
}

// noDue is a sentinel for "no detection scheduled".
const noDue simclock.Stamp = math.MaxFloat64

// state is the pipeline's per-account tracking record.
type state struct {
	id       platform.AccountID
	det      Detectability
	enrolled simclock.Stamp

	// rng is the account's private sweep stream, forked from the pipeline
	// stream at enrollment. The nightly detectors draw a data-dependent
	// number of deviates per account (rejection sampling, outcome-gated
	// draws), so a shared stream could not be partitioned by draw count
	// the way serving's click stream is; a stream per account makes the
	// sweep's decisions independent of scan order. The sweep runs on the
	// simulation goroutine (DESIGN.md §8), so that independence is not
	// what keeps the streams: every golden pins the detection bytes these
	// streams draw, and one shared stream would draw different ones.
	rng stats.RNG

	baseDue       simclock.Stamp
	baseStage     dataset.DetectionStage
	baseScheduled bool // post-ad base hazard has been drawn
	flagDue       simclock.Stamp
	flagStage     dataset.DetectionStage
	paymentDue    simclock.Stamp

	lastImpr   int64
	lastClicks int64
	complaints float64
}

func (s *state) earliest() (simclock.Stamp, dataset.DetectionStage) {
	due, stage := s.baseDue, s.baseStage
	if s.flagDue < due {
		due, stage = s.flagDue, s.flagStage
	}
	if s.paymentDue < due {
		due, stage = s.paymentDue, dataset.StagePayment
	}
	return due, stage
}

// Pipeline is the running detection system.
type Pipeline struct {
	cfg     Config
	rng     *stats.RNG
	p       *platform.Platform
	events  eventlog.Sink
	horizon simclock.Day

	// states is indexed by AccountID (dense, platform-issued); entries are
	// nil for unmonitored accounts. A slice keeps the daily sweep order
	// deterministic — map iteration order would desynchronize enforcement
	// order across runs with the same seed.
	states []*state
}

// New constructs a pipeline. events receives one record per enforcement
// action (the paper's fraud-detection records); in a simulation it is
// the dataset.Replayer that folds them into the collector. horizon is the
// total simulated span, used to scale detection improvement over time.
func New(cfg Config, rng *stats.RNG, p *platform.Platform, events eventlog.Sink, horizon simclock.Day) *Pipeline {
	return &Pipeline{
		cfg:     cfg,
		rng:     rng.ForkNamed("detection"),
		p:       p,
		events:  events,
		horizon: horizon,
	}
}

// improvement returns the detection-time scale factor at stamp t: 1.0 at
// the study start decaying linearly to ImprovementEnd at the horizon.
func (d *Pipeline) improvement(t simclock.Stamp) float64 {
	if d.horizon <= 0 {
		return 1
	}
	frac := float64(t) / float64(d.horizon)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return 1 + frac*(d.cfg.ImprovementEnd-1)
}

// Screen vets a registration. It returns true when the account is
// approved; on rejection it records the enforcement action and the account
// never serves an ad (the pre-first-ad mass of Figure 2).
func (d *Pipeline) Screen(id platform.AccountID, det Detectability, at simclock.Stamp) bool {
	var pReject float64
	if det.Fraud {
		frac := float64(at) / float64(d.horizon)
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		pReject = d.cfg.ScreenRejectStart + frac*(d.cfg.ScreenRejectEnd-d.cfg.ScreenRejectStart)
		if det.Prolific {
			pReject *= 0.4 // well-forged identities pass screening more often
		}
		// Repeat offenders trip identity/payment blacklists at signup.
		pReject *= 1 + 0.6*generationFactor(det.Generation)
		if pReject > 0.9 {
			pReject = 0.9
		}
	} else {
		pReject = d.cfg.FalseRejectProb
	}
	if !d.rng.Bool(pReject) {
		return true
	}
	when := simclock.Stamp(float64(at) + d.rng.Range(0.01, 0.6))
	if err := d.p.Reject(id, when, "screening"); err == nil {
		d.emit(id, when, dataset.StageScreening, "registration screening")
	}
	return false
}

// Enroll begins monitoring an approved account and schedules its base
// identity/verification hazard.
func (d *Pipeline) Enroll(id platform.AccountID, det Detectability, at simclock.Stamp) {
	s := &state{id: id, det: det, enrolled: at, baseDue: noDue, flagDue: noDue, paymentDue: noDue}
	s.rng = *d.rng.Fork()
	if det.Fraud {
		// Pre-ad verification failures; the post-ad review hazard is
		// scheduled lazily when the account begins posting ads.
		if d.rng.Bool(d.cfg.PreAdHazardProb) {
			s.baseDue = simclock.Stamp(float64(at) + stats.Exponential(d.rng, d.cfg.PreAdDelayMean))
			s.baseStage = dataset.StageManualReview
			s.baseScheduled = true
		}
	} else if d.rng.Bool(d.cfg.LegitFalsePositive) {
		// Friendly fire: a legitimate account swept up by enforcement.
		s.baseDue = simclock.Stamp(float64(at) + d.rng.Range(5, 400))
		s.baseStage = dataset.StageManualReview
	}
	// Policy: techsupport accounts enrolled after the ban are caught by
	// the explicit policy check almost immediately.
	if det.Vertical == verticals.TechSupport && at.Day() >= d.cfg.TechSupportBanDay {
		due := simclock.Stamp(float64(at) + stats.Exponential(d.rng, 1.2))
		if due < s.flagDue {
			s.flagDue, s.flagStage = due, dataset.StagePolicy
		}
	}
	for int(id) >= len(d.states) {
		d.states = append(d.states, nil)
	}
	d.states[id] = s
}

// flag sends an account to the manual review queue; shutdown follows after
// the review latency ("many of these mechanisms ... involve a manual
// review of the advertiser account" §3.2). The latency draw comes from
// the account's private stream, like every draw of the sweep scan.
func (d *Pipeline) flag(s *state, at simclock.Stamp, stage dataset.DetectionStage) {
	due := simclock.Stamp(float64(at) + stats.Exponential(&s.rng, d.cfg.ReviewLatencyMean))
	if due < s.flagDue {
		s.flagDue, s.flagStage = due, stage
	}
}

// EndOfDay runs the daily detection sweep over every monitored account in
// ID order: an account that is no longer active stops being monitored;
// an active one has its activity detectors run and, when something is due,
// is shut down on the spot. It returns the accounts shut down, in ID order
// (callers use this to model actor reactions such as re-registration).
//
// A scan reads only its own account's record and ledger entry and draws
// only from the account's private stream, so no account's outcome depends
// on another's enforcement.
func (d *Pipeline) EndOfDay(day simclock.Day) []platform.AccountID {
	// Everything due before the next day begins is enforced tonight; a
	// due date in the last millisecond of today must not buy the account
	// another full day of serving.
	dayEnd := simclock.StampAt(day+1, 0)
	banActive := day >= d.cfg.TechSupportBanDay
	var shut []platform.AccountID
	for i, s := range d.states {
		if s == nil {
			continue
		}
		acct := d.p.MustAccount(s.id)
		if acct.Status == platform.StatusActive {
			due, stage, hit := d.scanAccount(s, acct, dayEnd, banActive)
			if !hit {
				continue // stays monitored
			}
			shut = d.enforce(s, due, stage, shut)
		}
		d.states[i] = nil
	}
	return shut
}

// scanAccount runs the decision half of the sweep for one monitored
// active account: update activity deltas, schedule/roll every detector
// from the account's private stream, and report whether enforcement is
// due tonight. It mutates only s; platform reads are confined to the
// account's own record and its ledger entry.
func (d *Pipeline) scanAccount(s *state, acct *platform.Account, dayEnd simclock.Stamp, banActive bool) (simclock.Stamp, dataset.DetectionStage, bool) {
	imprDelta := acct.Impressions - s.lastImpr
	clickDelta := acct.Clicks - s.lastClicks
	s.lastImpr = acct.Impressions
	s.lastClicks = acct.Clicks

	// Once a fraud account begins posting ads, draw its post-ad review
	// hazard: lognormal from first-ad time, scaled by market maturity
	// and by the study-long detection improvement. Accounts that were
	// already posting when monitoring began (hijacked legitimate
	// accounts) measure from enrollment instead.
	if s.det.Fraud && !s.baseScheduled && acct.FirstAdAt != platform.NoStamp {
		s.baseScheduled = true
		from := acct.FirstAdAt
		if s.enrolled > from {
			from = s.enrolled
		}
		med, sig := d.cfg.BaseMedianDays, d.cfg.BaseSigma
		if s.det.Prolific {
			med, sig = d.cfg.ProlificMedianDays, d.cfg.ProlificSigma
		}
		delay := med * math.Exp(sig*s.rng.NormFloat64())
		// The slow tail models long-term monitoring misses on small
		// operators; prolific accounts are excluded — their base
		// hazard is already weeks long, and stacking multipliers on
		// the biggest spenders would let out-of-window activity
		// (Figure 3) dominate rather than shadow the in-window line.
		if !s.det.Prolific && s.rng.Bool(d.cfg.SlowTailProb) {
			delay *= s.rng.Range(d.cfg.SlowTailMin, d.cfg.SlowTailMax)
		}
		delay *= market.Get(s.det.Target).SuccessFactor
		delay *= d.improvement(from)
		// Burned identities correlate with faster review outcomes.
		delay *= math.Pow(0.6, generationFactor(s.det.Generation))
		due := simclock.Stamp(float64(from) + delay)
		if due < s.baseDue {
			s.baseDue = due
			s.baseStage = dataset.StageManualReview
		}
	}

	// Detector sensitivity tightens over the study as thresholds,
	// blacklists and models mature — the same improvement trend that
	// shortens the base hazard.
	tighten := 1 / d.improvement(dayEnd)

	// Rate anomaly: unusual serving velocity, discounted by how well
	// the account blends with similar-volume legitimate traffic.
	if rate := float64(imprDelta); rate > d.cfg.RateThreshold {
		excess := rate/d.cfg.RateThreshold - 1
		p := d.cfg.RateDetectProb * (1 - s.det.Blend) * math.Min(1, excess) * tighten
		if s.rng.Bool(math.Min(p, 1)) {
			d.flag(s, dayEnd, dataset.StageRateAnomaly)
		}
	}

	// Blacklists: text/keyword exposure, plus the phone-pattern
	// detector whose canonicalizer defeats most obfuscation.
	if s.det.Fraud || s.det.PageRisk > 0.1 {
		p := d.cfg.BlacklistBase * s.det.TextRisk * s.det.PageRisk
		if s.det.HasPhoneAds {
			if s.det.TextRisk > 0.5 {
				p += d.cfg.PhoneDetectProb
			} else {
				p += d.cfg.PhoneEvadedProb
			}
		}
		if imprDelta > 0 && s.rng.Bool(math.Min(p*tighten, 1)) {
			d.flag(s, dayEnd, dataset.StageBlacklist)
		}
	}

	// Complaints accumulate with scammy clicks; enough of them force
	// an investigation ("Bing accepts manual reporting" §3.2).
	s.complaints += float64(clickDelta) * s.det.PageRisk * d.cfg.ComplaintPerClick
	if s.complaints >= d.cfg.ComplaintThreshold {
		s.complaints = 0
		d.flag(s, dayEnd, dataset.StageComplaint)
	}

	// Payment network signals: chargebacks on stolen instruments.
	if s.paymentDue == noDue && acct.Uncollected() > d.cfg.PaymentExposure {
		s.paymentDue = simclock.Stamp(float64(dayEnd) + stats.Exponential(&s.rng, d.cfg.PaymentLatencyMean)*d.improvement(dayEnd))
	}

	// Policy sweep of pre-ban techsupport accounts.
	if banActive && s.det.Vertical == verticals.TechSupport && s.flagDue == noDue {
		due := simclock.Stamp(float64(dayEnd) + stats.Exponential(&s.rng, d.cfg.PolicySweepMean))
		s.flagDue, s.flagStage = due, dataset.StagePolicy
	}

	due, stage := s.earliest()
	return due, stage, due <= dayEnd
}

// enforce executes one due shutdown: platform action and detection
// event.
func (d *Pipeline) enforce(s *state, due simclock.Stamp, stage dataset.DetectionStage, shut []platform.AccountID) []platform.AccountID {
	if err := d.p.Shutdown(s.id, due, stage.String()); err == nil {
		d.emit(s.id, due, stage, stage.String())
		shut = append(shut, s.id)
	}
	return shut
}

// emit records one enforcement action as a detection event.
func (d *Pipeline) emit(id platform.AccountID, at simclock.Stamp, stage dataset.DetectionStage, reason string) {
	d.events.Append(eventlog.Event{
		Type:    eventlog.TypeDetection,
		Day:     int32(at.Day()),
		Account: int32(id),
		At:      float64(at),
		Stage:   uint8(stage),
		Reason:  reason,
	})
}

// Monitored returns the number of accounts currently under monitoring,
// counted on each call (the progress line is its only reader).
func (d *Pipeline) Monitored() int {
	n := 0
	for _, s := range d.states {
		if s != nil {
			n++
		}
	}
	return n
}
