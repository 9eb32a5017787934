package agents

import (
	"repro/internal/adcopy"
	"repro/internal/eventlog"
	"repro/internal/platform"
	"repro/internal/simclock"
	"repro/internal/stats"
)

// Agent binds a sampled Profile to a live platform account and executes
// its campaign-management behavior day by day (Runtime.Step, step.go).
type Agent struct {
	Profile
	Account platform.AccountID

	// StartDay is the first day the agent manages campaigns; first-ad
	// delays separate registration time from first ad creation (the two
	// lifetime baselines of Figure 2).
	StartDay simclock.Day
	// startFrac is the within-day fraction of the first campaign action.
	startFrac float64

	domains []string
	rng     *stats.RNG

	// Lazily built per-agent caches, invalidated on Hijack (profile and
	// domains change) and simply absent after a checkpoint restore; both
	// rebuild without consuming randomness, so laziness is trajectory-safe.
	kwSampler *adcopy.KeywordSampler
	dispURLs  []string
	destURLs  []string
}

// ensureURLs builds the per-domain display/destination URL strings once,
// so the non-FullCreatives create path stops concatenating two fresh
// strings per created ad.
func (a *Agent) ensureURLs() {
	if a.dispURLs != nil {
		return
	}
	a.dispURLs = make([]string, len(a.domains))
	a.destURLs = make([]string, len(a.domains))
	for i, d := range a.domains {
		a.dispURLs[i] = "www." + d
		a.destURLs[i] = "http://" + d + "/"
	}
}

// Runtime executes agent behavior against a platform and emits one event
// per campaign action. One Runtime serves all agents.
type Runtime struct {
	p        *platform.Platform
	events   eventlog.Sink
	universe func(verticalIdx int) *adcopy.Universe
	copygen  *adcopy.Generator
	domgen   *adcopy.DomainGenerator
	rng      *stats.RNG

	// FullCreatives enables full ad-copy text generation. Large runs keep
	// it off: the text does not influence the auction (quality and the
	// detectability flags are carried separately) and would dominate
	// memory at millions of ads.
	FullCreatives bool

	// Per-create scratch — the keyword sample, its match types, and the
	// bids staged for the batched platform insert — truncated at each use.
	// Step runs on the simulation goroutine only, so one set serves every
	// agent and a day's steps allocate nothing but what the platform keeps.
	kwBuf     []int
	matchBuf  []platform.MatchType
	kbScratch []platform.KeywordBid
}

// NewRuntime constructs the agent runtime. events receives one record per
// campaign action (ad/bid creations and modifications); in a simulation
// it is the dataset.Replayer that folds them into the collector.
// Emission consumes no randomness. universe resolves a vertical index to
// its keyword universe (typically queries.Generator.Universe).
func NewRuntime(p *platform.Platform, events eventlog.Sink, universe func(int) *adcopy.Universe, rng *stats.RNG) *Runtime {
	return &Runtime{
		p:        p,
		events:   events,
		universe: universe,
		copygen:  adcopy.NewGenerator(rng.ForkNamed("adcopy")),
		domgen:   adcopy.NewDomainGenerator(rng.ForkNamed("domains")),
		rng:      rng.ForkNamed("agent-runtime"),
	}
}

// Spawn creates the Agent runtime state for a newly approved account.
func (r *Runtime) Spawn(prof Profile, acct platform.AccountID, created simclock.Stamp) *Agent {
	a := &Agent{
		Profile: prof,
		Account: acct,
		rng:     r.rng.Fork(),
	}
	// First-ad delay: fraudulent accounts post almost immediately (their
	// clock is ticking); legitimate advertisers take days to build out.
	var delay float64
	if prof.Fraud {
		delay = a.rng.Range(0.05, 1.5)
	} else {
		delay = a.rng.Range(0.5, 10)
	}
	start := simclock.Stamp(float64(created) + delay)
	a.StartDay = start.Day()
	a.startFrac = float64(start) - float64(start.Day())
	n := prof.NumDomains
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		if prof.UsesShared && i == n-1 {
			if a.rng.Bool(0.5) {
				a.domains = append(a.domains, r.domgen.Shortener())
			} else {
				a.domains = append(a.domains, r.domgen.Affiliate())
			}
		} else {
			a.domains = append(a.domains, r.domgen.Unique())
		}
	}
	return a
}

// Hijack converts a live agent to attacker control: the account keeps its
// identity, payment standing and history, but from `day` it runs the
// attacker's campaigns ("attackers ... compromise the accounts of
// existing legitimate advertisers" §2). The old portfolio keeps serving —
// abandoning it would only draw attention — while the attacker builds out
// on fresh domains.
func (r *Runtime) Hijack(a *Agent, takeover Profile, day simclock.Day) {
	takeover.Country = a.Country // the account's registration is unchanged
	a.Profile = takeover
	a.StartDay = day
	a.domains = []string{r.domgen.Unique()}
	// The takeover changes the keyword pocket and the domain set; drop the
	// per-agent caches so they rebuild against the new profile.
	a.kwSampler = nil
	a.dispURLs = nil
	a.destURLs = nil
}
