// Package sim is the discrete-event engine that ties the substrates
// together into the two-year ecosystem the paper measures: daily account
// arrivals with a rising fraud share, agent campaign management, the
// query/auction/click serving loop, billing, and the nightly detection
// sweep — all deterministic under a single seed.
package sim

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/agents"
	"repro/internal/auction"
	"repro/internal/clicks"
	"repro/internal/dataset"
	"repro/internal/detection"
	"repro/internal/eventlog"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/queries"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/verticals"
)

// Config parameterizes a simulation run.
type Config struct {
	Seed uint64

	// Days is the simulated span; the standard horizon covers the paper's
	// full 1/Y1–1/Y3 range.
	Days simclock.Day

	// QueriesPerDay is the served search volume.
	QueriesPerDay int

	// RegistrationsPerDay is the mean daily account-arrival count.
	RegistrationsPerDay float64

	// FraudShareStart/End set the fraudulent fraction of new
	// registrations, ramping linearly ("generally more than a third — and
	// near the end more than half" §4.1).
	FraudShareStart float64
	FraudShareEnd   float64

	// InitialLegit seeds the pre-existing legitimate advertiser base at
	// study start (the ecosystem predates the measurement window).
	InitialLegit int

	// ReRegisterProb is the probability that a shut-down fraudulent
	// actor returns with a fresh account ("fraudulent advertisers rarely
	// walk away" §3.2; "a single fraudulent actor may register for
	// multiple accounts" §4.1). Re-registrations count toward Figure 1's
	// registration mix but carry burned identities, so they die faster.
	ReRegisterProb float64
	// ReRegisterDelayMean is the mean days before the actor returns.
	ReRegisterDelayMean float64

	// DisableKeywordPockets is an ablation hook: fraud agents sample the
	// whole keyword universe instead of converging on shared
	// affiliate-program pockets.
	DisableKeywordPockets bool

	// CompromisesPerDay is the expected number of legitimate advertiser
	// accounts hijacked per day (§2's second fraud channel: "they
	// compromise the accounts of existing legitimate advertisers").
	// Hijacked accounts run the attacker's campaigns on the victim's
	// payment standing until account-takeover signals catch them.
	CompromisesPerDay float64

	Auction   auction.Config
	Detection detection.Config

	// FullCreatives generates complete ad text (small runs and examples).
	FullCreatives bool

	// Windows are the named measurement windows tracked per account;
	// SampleWindow feeds the global Table 3/4 counters.
	Windows      []simclock.NamedWindow
	SampleWindow simclock.Window

	// Events, when non-nil, receives every record the run produces —
	// registrations, campaign actions, impressions, detections — as an
	// append-only event stream (see internal/eventlog). Emission happens
	// from the single simulation goroutine and consumes no randomness, so
	// attaching a sink changes neither behavior nor seeded outcomes; nil
	// keeps the non-logging fast path. New passes it to SetEvents, the
	// only other way in; it stays a field because the benchmark program
	// builds its durable run's Sim with it. A checkpoint never stores it.
	Events eventlog.Sink
}

// DefaultConfig is the full-scale two-year run used by cmd/experiments.
func DefaultConfig() Config {
	return Config{
		Seed:                42,
		Days:                simclock.Horizon,
		QueriesPerDay:       25000,
		RegistrationsPerDay: 66,
		FraudShareStart:     0.31,
		FraudShareEnd:       0.46,
		InitialLegit:        6000,
		ReRegisterProb:      0.30,
		ReRegisterDelayMean: 2.5,
		CompromisesPerDay:   0.25,
		Auction:             auction.DefaultConfig(),
		Detection:           detection.DefaultConfig(),
		Windows:             simclock.Periods(),
		SampleWindow:        simclock.Y1Q2,
	}
}

// MediumConfig trades some statistical depth for speed; it still covers
// the full horizon, so every experiment remains meaningful. This is the
// scale the benchmark harness uses.
func MediumConfig() Config {
	c := DefaultConfig()
	c.QueriesPerDay = 8000
	c.RegistrationsPerDay = 36
	c.InitialLegit = 2500
	return c
}

// SmallConfig is a fast configuration for tests: it still spans Y1Q2 (the
// window most analyses use) but stops mid-year.
func SmallConfig() Config {
	c := DefaultConfig()
	c.Days = 200
	c.QueriesPerDay = 1500
	c.RegistrationsPerDay = 12
	c.InitialLegit = 400
	return c
}

// ScaleConfig maps a -scale flag value onto its preset: "small",
// "medium" or "full" (DefaultConfig). The error carries no package
// prefix; each binary adds its own.
func ScaleConfig(name string) (Config, error) {
	switch name {
	case "small":
		return SmallConfig(), nil
	case "medium":
		return MediumConfig(), nil
	case "full":
		return DefaultConfig(), nil
	default:
		return Config{}, fmt.Errorf("unknown scale %q (want small, medium, or full)", name)
	}
}

// Result summarizes a completed run. The live objects — platform and
// collector — are what the measurement library consumes.
type Result struct {
	Config    Config
	Platform  *platform.Platform
	Collector *dataset.Collector

	Counters // the run totals a checkpoint stores

	ShutdownsByStage map[dataset.DetectionStage]int
	Elapsed          time.Duration
}

// Sim is a running simulation.
type Sim struct {
	cfg      Config
	rng      *stats.RNG
	p        *platform.Platform
	col      *dataset.Collector
	rec      *dataset.Replayer // the record path; see newWired
	qgen     *queries.Generator
	factory  *agents.Factory
	runtime  *agents.Runtime
	pipeline *detection.Pipeline
	model    *clicks.Model

	arrRNG   *stats.RNG
	clickRNG *stats.RNG

	live []*agents.Agent
	// draw is the day's query stream and the agents phase's draw-ahead of
	// it; see queryDraw in dayloop.go.
	draw queryDraw

	// fraudProfiles remembers each fraud account's profile so shutdowns
	// can spawn next-generation re-registrations.
	fraudProfiles map[platform.AccountID]agents.Profile
	// pendingReregs are scheduled actor returns, kept day-ordered.
	pendingReregs map[simclock.Day][]agents.Profile

	// eng is the serving engine (worker shards, page caches, per-day
	// staging); built lazily so SetWorkers can apply after Restore.
	eng *serveEngine

	// workers and progress are how this process runs, not what it
	// simulates, so a checkpoint stores neither; see SetWorkers and
	// SetProgress.
	workers  int
	progress func(string)

	// day is the next day to simulate and phase the next phase of that
	// day. day is the resume cursor: a checkpoint is taken only when phase
	// is PhaseArrivals, and the initial population is seeded at the start
	// of day 0's arrivals.
	day     simclock.Day
	phase   Phase
	started time.Time
	timing  *PhaseTimes

	res Result

	// ckpt is the checkpoint encoder's memory, kept between saves.
	ckpt checkpointBufs
}

// New wires up a simulation from the configuration; it panics on a
// horizon Restore would refuse.
func New(cfg Config) *Sim {
	if err := checkHorizon(cfg); err != nil {
		panic(err)
	}
	s := newWired(cfg, platform.New(), dataset.NewCollector(cfg.Windows, cfg.SampleWindow))
	if cfg.Events != nil {
		s.SetEvents(cfg.Events)
	}
	return s
}

// checkHorizon refuses a Config that simulates no day.
func checkHorizon(cfg Config) error {
	if cfg.Days <= 0 {
		return fmt.Errorf("sim: config has non-positive horizon %d", cfg.Days)
	}
	return nil
}

// newWired builds the object graph around an existing platform and
// collector. It is the shared core of New and Restore: construction (and
// its RNG forking order) is identical in both paths; Restore then
// overwrites every mutable stream and table.
func newWired(cfg Config, p *platform.Platform, col *dataset.Collector) *Sim {
	root := stats.NewRNG(cfg.Seed)
	qgen := queries.NewGenerator(root.ForkNamed("queries"))
	factory := agents.NewFactory(root.ForkNamed("factory"))
	factory.SetPocketsDisabled(cfg.DisableKeywordPockets)
	// One Replayer folds every non-impression record into the collector,
	// live exactly as on a log replay, and forwards it to the user's sink
	// (SetEvents). Impressions fold in the serving engine's shards.
	rec := dataset.NewReplayer(col)
	p.SetEvents(rec)
	runtime := agents.NewRuntime(p, rec, qgen.Universe, root.ForkNamed("runtime"))
	runtime.FullCreatives = cfg.FullCreatives
	pipeline := detection.New(cfg.Detection, root.ForkNamed("pipeline"), p, rec, cfg.Days)
	maxKeywords := 0
	for i := range verticals.All() {
		maxKeywords = max(maxKeywords, qgen.Universe(i).Size())
	}
	if err := checkPageKeyWidths(maxKeywords, len(verticals.All()), len(market.All())); err != nil {
		panic(err) // the tables are compiled in: only a code change gets here
	}
	return &Sim{
		cfg:           cfg,
		rng:           root,
		p:             p,
		col:           col,
		rec:           rec,
		qgen:          qgen,
		factory:       factory,
		runtime:       runtime,
		pipeline:      pipeline,
		model:         clicks.DefaultModel(),
		arrRNG:        root.ForkNamed("arrivals"),
		clickRNG:      root.ForkNamed("clicks"),
		fraudProfiles: make(map[platform.AccountID]agents.Profile),
		pendingReregs: make(map[simclock.Day][]agents.Profile),
		res:           Result{Config: cfg, Platform: p, Collector: col, ShutdownsByStage: nil},
	}
}

// SetEvents attaches (or, with nil, detaches) the event sink: the
// record path's forward sink and the serving engine's impression sink.
// Restore uses it to reattach a sink that could not travel through the
// snapshot.
func (s *Sim) SetEvents(sink eventlog.Sink) {
	s.cfg.Events = sink
	s.res.Config.Events = sink
	s.rec.Forward = sink
}

// SetProgress attaches a callback that receives a line every 30
// simulated days; nil (the default) detaches it.
func (s *Sim) SetProgress(fn func(string)) { s.progress = fn }

// SetWorkers sets the day loop's fan-out; 0 (the default) uses
// runtime.GOMAXPROCS. The serving phase's auction and click halves each
// split the day's queries into that many contiguous blocks (DESIGN.md
// §7), and the agents phase's staged posting-list edits are applied in
// that many shares, each (vertical, country) group in one of them
// (DESIGN.md §8 "Staged index edits"). It selects no code: one worker
// runs each over a single block or share, and the query draw-ahead and
// the checkpoint encode's two platform halves run on a goroutine of
// their own at every count. The agents' decisions and the detection
// sweep run on the simulation goroutine (DESIGN.md §8). Every seeded
// outcome — dataset digests, billing, event-log and checkpoint bytes,
// RNG stream positions — is byte-identical across all worker counts
// (see the differential checks in record_test.go), so the count is a
// pure throughput knob that a checkpoint does not store: a constructed
// or restored Sim may take any, e.g. a resume on a differently sized
// machine.
func (s *Sim) SetWorkers(n int) {
	s.workers = n
	s.eng = nil // rebuilt with the new shard count on the next served day
}

// resolveWorkers maps the SetWorkers count onto an effective one.
func (s *Sim) resolveWorkers() int {
	if s.workers > 0 {
		return s.workers
	}
	return runtime.GOMAXPROCS(0)
}

// Platform exposes the underlying ad network (read access for analyses).
func (s *Sim) Platform() *platform.Platform { return s.p }

// Collector exposes the dataset collector.
func (s *Sim) Collector() *dataset.Collector { return s.col }

// Queries exposes the live query generator, the one the day loop draws
// from. Its keyword universes are immutable and safe to read at any time
// (the adserver and the load harness resolve keywords through them). Its
// stream positions — State, or anything Next would return — are meaningful
// only between days, the only place a checkpoint is taken: the agents
// phase draws the day's queries ahead of serving, so from then until
// serving the generator is a day ahead of the day cursor. No draw is
// started for a day StepPhase will not serve, so after the last day the
// generator stands where the last serving phase left it. Drawing from it
// mid-run perturbs the trajectory like any other use of a seeded stream.
func (s *Sim) Queries() *queries.Generator { return s.qgen }

// fraudShare returns the fraudulent fraction of arrivals on a day.
func (s *Sim) fraudShare(day simclock.Day) float64 {
	frac := float64(day) / float64(s.cfg.Days)
	return s.cfg.FraudShareStart + frac*(s.cfg.FraudShareEnd-s.cfg.FraudShareStart)
}

// detectability derives the pipeline's latent risk surface from a profile.
func detectability(prof agents.Profile) detection.Detectability {
	blend := 0.9 - 0.5*prof.Scamminess // legitimate advertisers blend by definition
	if prof.Fraud {
		blend = 0.15 + 0.25*prof.Quality
		if prof.Class == agents.ClassFraudProlific {
			blend = 0.75 + 0.2*prof.Quality
		}
	}
	if blend > 0.98 {
		blend = 0.98
	}
	return detection.Detectability{
		PageRisk:    prof.Scamminess,
		TextRisk:    1 - prof.Evasion,
		Blend:       blend,
		HasPhoneAds: prof.Vertical == verticals.TechSupport,
		Vertical:    prof.Vertical,
		Target:      prof.Target,
		Fraud:       prof.Fraud,
		Prolific:    prof.Class == agents.ClassFraudProlific,
		Generation:  prof.Generation,
	}
}

// register runs one arrival through registration, screening, and (if
// approved) enrollment and agent spawn.
func (s *Sim) register(prof agents.Profile, at simclock.Stamp) {
	s.res.Registrations++
	if prof.Fraud {
		s.res.FraudRegistrations++
	}
	acct := s.p.Register(platform.RegistrationRequest{
		At:              at,
		Country:         prof.Country,
		Fraud:           prof.Fraud,
		PrimaryVertical: prof.Vertical,
		StolenPayment:   prof.StolenPayment,
		Generation:      prof.Generation,
	})
	det := detectability(prof)
	if prof.Generation > 0 {
		s.rec.Append(eventlog.Event{
			Type:    eventlog.TypeReregistration,
			Day:     int32(at.Day()),
			Account: int32(acct.ID),
			N:       int32(prof.Generation),
		})
	}
	if prof.Fraud && s.cfg.ReRegisterProb > 0 {
		s.fraudProfiles[acct.ID] = prof
	}
	if !s.pipeline.Screen(acct.ID, det, at) {
		s.maybeReregister(acct.ID, at.Day())
		return
	}
	if err := s.p.Approve(acct.ID); err != nil {
		panic(err)
	}
	s.pipeline.Enroll(acct.ID, det, at)
	s.live = append(s.live, s.runtime.Spawn(prof, acct.ID, at))
}

// maybeReregister rolls the recidivism dice for a just-terminated fraud
// account and schedules the actor's next-generation return.
func (s *Sim) maybeReregister(id platform.AccountID, day simclock.Day) {
	prof, ok := s.fraudProfiles[id]
	if !ok {
		return
	}
	delete(s.fraudProfiles, id)
	if !s.arrRNG.Bool(s.cfg.ReRegisterProb) {
		return
	}
	due := day + 1 + simclock.Day(stats.Exponential(s.arrRNG, s.cfg.ReRegisterDelayMean))
	if due >= s.cfg.Days {
		return
	}
	s.pendingReregs[due] = append(s.pendingReregs[due], s.factory.Recidivate(prof))
}

// seedInitialPopulation creates the pre-existing legitimate advertiser
// base with registration stamps before the study epoch, then lets them
// build their portfolios during a query-free warmup.
func (s *Sim) seedInitialPopulation() {
	for i := 0; i < s.cfg.InitialLegit; i++ {
		prof := s.factory.NewLegit()
		at := simclock.Stamp(-s.arrRNG.Range(5, 360))
		s.register(prof, at)
	}
	// One staging window for the whole warmup: the bounded log applies
	// itself whenever it fills.
	s.p.Index().BeginStage(s.resolveWorkers())
	for day := simclock.Day(-40); day < 0; day++ {
		s.runAgents(day)
	}
	s.p.Index().Flush()
}

// Run executes the simulation to the horizon and returns the result. On a
// fresh Sim it runs the whole span; on a restored Sim it continues from
// the checkpointed day.
func (s *Sim) Run() *Result {
	for s.Step() {
	}
	return s.Finish()
}

// Day returns the next day the simulation will run (0 before the first
// Step; the checkpointed day on a restored Sim).
func (s *Sim) Day() simclock.Day { return s.day }

// Step advances the simulation to the next day boundary: the remaining
// phases of the current day (all four, starting from a fresh Sim, a
// restored one or a Step). The first call on a fresh Sim also seeds the
// initial population. It returns false — without running anything — once
// the horizon is reached, so `for s.Step() {}` drives a run to
// completion.
func (s *Sim) Step() bool {
	if s.day >= s.cfg.Days {
		return false
	}
	day := s.day
	for s.day == day {
		s.StepPhase()
	}
	s.emitProgress(day)
	return s.day < s.cfg.Days
}

// emitProgress reports the every-30-days progress line. The nil guard
// lives here, ahead of the counts and the fmt.Sprintf, so the common
// no-callback run never pays for them. fraudAlive counts the live-list
// agents whose account is fraudulent and still active.
func (s *Sim) emitProgress(day simclock.Day) {
	if s.progress == nil || int(day)%30 != 29 {
		return
	}
	fraudAlive := 0
	for _, a := range s.live {
		if acct := s.p.MustAccount(a.Account); acct.Fraud && acct.Alive() {
			fraudAlive++
		}
	}
	s.progress(fmt.Sprintf("day %d/%d (%s): accounts=%d monitored=%d liveAds=%d clicks=%d fraudClicks=%d fraudAlive=%d",
		day+1, s.cfg.Days, day.Label(), s.p.NumAccounts(), s.pipeline.Monitored(), s.p.LiveAds(), s.res.Clicks, s.res.FraudClicks, fraudAlive))
}

// Finish seals the result after the last Step. Elapsed covers only this
// process's share of a resumed run.
func (s *Sim) Finish() *Result {
	s.res.ShutdownsByStage = s.col.ShutdownsByStage()
	if !s.started.IsZero() {
		s.res.Elapsed = time.Since(s.started)
	}
	return &s.res
}

// compromiseAccounts hijacks a Poisson number of mature legitimate
// accounts: the attacker inherits the victim's identity and genuine
// payment instrument and runs fraud campaigns on it until account-takeover
// signals catch up. From the measurement library's perspective the whole
// account becomes "fraudulent" once shut down — the same labeling
// imperfection the paper accepts (§3.2).
func (s *Sim) compromiseAccounts(day simclock.Day) {
	if s.cfg.CompromisesPerDay <= 0 || len(s.live) == 0 {
		return
	}
	n := stats.Poisson(s.arrRNG, s.cfg.CompromisesPerDay)
	for i := 0; i < n; i++ {
		for try := 0; try < 20; try++ {
			a := s.live[s.arrRNG.Intn(len(s.live))]
			acct := s.p.MustAccount(a.Account)
			if acct.Fraud || !acct.Alive() || float64(day)-float64(acct.Created) < 30 {
				continue
			}
			prof := s.factory.NewFraud()
			prof.StolenPayment = false // the victim's instrument is genuine
			s.runtime.Hijack(a, prof, day)
			acct.Fraud = true
			acct.PrimaryVertical = prof.Vertical
			acct.StolenPayment = false
			det := detectability(prof)
			det.Blend = 0.5 // sudden behavior change is itself a signal
			s.pipeline.Enroll(acct.ID, det, simclock.StampAt(day, s.arrRNG.Float64()))
			s.res.Compromises++
			break
		}
	}
}
