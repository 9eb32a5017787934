// Package agents implements the behavioral models of advertisers — the
// actors that drive the ad platform in the simulation.
//
// Legitimate advertisers run durable portfolios: many ads, many keywords,
// precision-skewed match types, steady maintenance, bills paid. Fraudulent
// advertisers are short-horizon traffic maximizers: very few ads and
// keywords ("adding ads and keywords only increases the ways in which the
// advertiser can be identified" §5.2), broad/phrase-skewed matching
// ("fraudulent advertisers skew away from precision matching" §5.3),
// head-keyword targeting for maximum impression rate (§5.1), blacklist
// evasion (§5.2.4), and often stolen payment instruments. A small prolific
// tier models the top-10% fraudsters that dominate fraud spend and clicks
// (Figure 4) and "even pay their (very large) bills" (§7).
package agents

import (
	"math"

	"repro/internal/market"
	"repro/internal/stats"
	"repro/internal/verticals"
)

// Class is the coarse agent type.
type Class uint8

// Agent classes.
const (
	ClassLegit Class = iota
	ClassFraud
	ClassFraudProlific
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassLegit:
		return "legit"
	case ClassFraud:
		return "fraud"
	case ClassFraudProlific:
		return "fraud-prolific"
	default:
		return "unknown"
	}
}

// Profile is the sampled parameter set governing one advertiser's
// behavior for its whole lifetime.
type Profile struct {
	Class Class
	Fraud bool
	// Generation counts how many of this actor's previous accounts were
	// shut down; 0 is a fresh actor. "A single fraudulent actor may
	// register for multiple accounts" (§4.1), and enforcement blacklists
	// the identity and payment trail each time (§3.2), so later
	// generations are screened and detected faster.
	Generation  int
	Country     market.Country
	Target      market.Country
	Vertical    verticals.Vertical
	VerticalIdx int

	// LifetimeDays is how long the advertiser's business runs before the
	// account closes voluntarily (0 = indefinitely). Legitimate
	// advertisers churn out; without it the ecosystem grows without bound
	// and auction prices inflate over the study.
	LifetimeDays float64

	// Portfolio shape.
	PortfolioSize int     // target number of concurrently live ads
	KeywordsPerAd int     // bids attached to each ad
	BuildPerDay   int     // ads created per day until the portfolio is full
	ChurnRate     float64 // daily probability of replacing one ad
	MaintainRate  float64 // daily probability of a modification pass

	// Bidding.
	MatchMix [3]float64 // probability a new bid is exact/phrase/broad
	BidScale float64    // multiplier on the vertical's bid level
	// DefaultBidProb is the probability a new bid is left at the market's
	// default maximum bid ("the median maximum bid is the same as the
	// default amount in US markets" §5.3).
	DefaultBidProb float64
	KeywordSkew    float64 // Zipf skew when selecting keywords (higher = headier)
	// PocketStart/PocketSpan restrict keyword selection to the popularity
	// band [PocketStart, PocketStart+PocketSpan) — the keyword pocket of
	// the affiliate program the advertiser works (0 span = whole
	// universe). Fraud archetypes in a vertical share the same pocket.
	PocketStart int
	PocketSpan  int

	// Ad quality and deception.
	Quality       float64 // intrinsic ad quality in (0, 1]
	Scamminess    float64 // drives user complaints after clicks
	Evasion       float64 // probability of applying blacklist evasion
	StolenPayment bool
	NumDomains    int // distinct landing domains the advertiser rotates
	UsesShared    bool
}

// Factory samples agent profiles. It owns independent RNG streams for
// fraud and legitimate populations so changing one population's parameters
// does not perturb the other's stream.
type Factory struct {
	fraudRNG    *stats.RNG
	legitRNG    *stats.RNG
	fraudReg    *market.Sampler
	legitReg    *market.Sampler
	fraudTarget *market.Sampler

	dubious     []verticals.Info
	dubiousIdx  []int
	legitVerts  []verticals.Info
	legitIdx    []int
	legitVertW  []float64
	portfolioLN *stats.LogNormal
	kwPerAdLN   *stats.LogNormal
	fraudSizeLN *stats.LogNormal
	legitBidLN  *stats.LogNormal
	fraudBidLN  *stats.LogNormal

	// techSupportBanned gates the techsupport vertical's appeal; the sim
	// engine flips it when the policy change takes effect, modeling the
	// fraud community abandoning a dead vertical.
	techSupportBanned bool

	// pocketsDisabled turns off the shared keyword-pocket behavior for
	// ablation runs: fraud then samples the whole universe like everyone
	// else.
	pocketsDisabled bool
}

// SetPocketsDisabled toggles the affiliate keyword-pocket mechanism
// (ablation hook; see DESIGN.md).
func (f *Factory) SetPocketsDisabled(disabled bool) { f.pocketsDisabled = disabled }

// NewFactory constructs a profile factory over a parent RNG.
func NewFactory(rng *stats.RNG) *Factory {
	f := &Factory{
		fraudRNG: rng.ForkNamed("fraud-agents"),
		legitRNG: rng.ForkNamed("legit-agents"),
	}
	f.fraudReg = market.NewFraudRegistrationSampler(f.fraudRNG.ForkNamed("reg"))
	f.legitReg = market.NewNonfraudRegistrationSampler(f.legitRNG.ForkNamed("reg"))
	f.fraudTarget = market.NewFraudTargetSampler(f.fraudRNG.ForkNamed("target"))
	for i, v := range verticals.All() {
		if v.Dubious {
			f.dubious = append(f.dubious, v)
			f.dubiousIdx = append(f.dubiousIdx, i)
		}
		f.legitVerts = append(f.legitVerts, v)
		f.legitIdx = append(f.legitIdx, i)
		f.legitVertW = append(f.legitVertW, v.QueryShare*v.LegitDensity)
	}
	f.portfolioLN = stats.NewLogNormal(f.legitRNG.ForkNamed("portfolio"), 2.9, 1.0) // median ~18 ads
	f.kwPerAdLN = stats.NewLogNormal(f.legitRNG.ForkNamed("kwperad"), 2.1, 0.7)     // median ~8 kws/ad
	f.fraudSizeLN = stats.NewLogNormal(f.fraudRNG.ForkNamed("size"), 0.5, 0.8)      // median ~1.6 ads
	f.legitBidLN = stats.NewLogNormal(f.legitRNG.ForkNamed("bids"), 0.0, 0.45)
	f.fraudBidLN = stats.NewLogNormal(f.fraudRNG.ForkNamed("bids"), 0.0, 0.40)
	return f
}

// SetTechSupportBanned flips the techsupport vertical's appeal to
// newly-arriving fraud agents (the Figure 8 intervention).
func (f *Factory) SetTechSupportBanned(banned bool) { f.techSupportBanned = banned }

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// NewLegit samples a legitimate advertiser profile.
func (f *Factory) NewLegit() Profile {
	rng := f.legitRNG
	vi := stats.Categorical(rng, f.legitVertW)
	v := f.legitVerts[vi]
	country := f.legitReg.Sample()

	size := clampInt(int(f.portfolioLN.Sample()), 1, 400)
	lifetime := clamp(270*math.Exp(0.7*rng.NormFloat64()), 45, 2000)

	// Match mix: precision-skewed. About half of legitimate advertisers
	// have no exact bids at all (§5.3); the rest lean on exact and phrase.
	// Exact usage correlates with portfolio size — large advertisers run
	// managed campaigns with exact bids on their core queries, which is
	// why exact matches carry most non-fraud clicks (Table 4) even though
	// half the population has none.
	var mix [3]float64
	pExact := clamp(0.30+float64(size)/120, 0.30, 0.92)
	hasExact := rng.Bool(pExact)
	if hasExact {
		e := rng.Range(0.35, 0.85)
		ph := rng.Range(0.6, 0.95) * (1 - e)
		mix = [3]float64{e, ph, 1 - e - ph}
	} else {
		ph := rng.Range(0.55, 0.95)
		mix = [3]float64{0, ph, 1 - ph}
	}
	return Profile{
		Class:          ClassLegit,
		Fraud:          false,
		Country:        country,
		Target:         country,
		Vertical:       v.Name,
		VerticalIdx:    f.legitIdx[vi],
		LifetimeDays:   lifetime,
		PortfolioSize:  size,
		KeywordsPerAd:  clampInt(int(f.kwPerAdLN.Sample()), 1, 60),
		BuildPerDay:    clampInt(size/10+1, 1, 40),
		ChurnRate:      rng.Range(0.004, 0.03) * float64(size),
		MaintainRate:   rng.Range(0.05, 0.5),
		MatchMix:       mix,
		BidScale:       clamp(f.legitBidLN.Sample(), 0.2, 6),
		DefaultBidProb: 0.58,
		// Legitimate advertisers bid the specific terms of their own
		// business — spread across the keyword tail — which is why the
		// median legitimate impression rate sits well below the head-term
		// chasing fraudsters' (Figure 5).
		KeywordSkew:   rng.Range(1.01, 1.25),
		Quality:       clamp(0.45+0.18*rng.NormFloat64(), 0.05, 0.95),
		Scamminess:    rng.Range(0, 0.02),
		Evasion:       0,
		StolenPayment: false,
		NumDomains:    1,
	}
}

// fraudVerticalWeights returns the current appeal weights over dubious
// verticals, honoring the techsupport policy state.
func (f *Factory) fraudVerticalWeights() []float64 {
	w := make([]float64, len(f.dubious))
	for i, v := range f.dubious {
		w[i] = v.FraudAppeal
		if v.Name == verticals.TechSupport {
			if f.techSupportBanned {
				w[i] = 0.02 // a trickle keeps probing the banned vertical
			} else {
				w[i] = v.FraudAppeal * 2.2 // the techsupport boom (Fig. 8)
			}
		}
	}
	return w
}

// NewFraud samples a fraudulent advertiser profile. About 8% of arrivals
// are prolific: focused, better-funded, higher-quality operations that
// blend in with legitimate advertisers (§5.1) and dominate fraud activity
// (Figure 4).
func (f *Factory) NewFraud() Profile {
	rng := f.fraudRNG
	di := stats.Categorical(rng, f.fraudVerticalWeights())
	v := f.dubious[di]
	country := f.fraudReg.Sample()
	target := country
	// Fraudsters "by and large ... target ads in their own country"
	// (§5.2.3), but many chase the biggest or least-defended markets.
	if rng.Bool(0.70) {
		target = f.fraudTarget.Sample()
	}

	// Techsupport operations in the boom era were organized businesses:
	// disproportionately well-funded and durable ("just fourteen
	// advertisers survived long enough to spend more than $100,000 ...
	// 11 of the 14 were selling third-party tech support" §5.2.1).
	pProlific := 0.10
	if v.Name == verticals.TechSupport && !f.techSupportBanned {
		pProlific = 0.25
	}
	prolific := rng.Bool(pProlific)

	// Match mix: ~60% of fraudulent advertisers have no exact bids; the
	// median fraudulent advertiser leans on phrase matching (§5.3).
	var mix [3]float64
	if rng.Bool(0.66) {
		ph := rng.Range(0.35, 0.8)
		mix = [3]float64{0, ph, 1 - ph}
	} else {
		e := rng.Range(0.1, 0.55)
		ph := rng.Range(0.4, 0.9) * (1 - e)
		mix = [3]float64{e, ph, 1 - e - ph}
	}

	p := Profile{
		Class:          ClassFraud,
		Fraud:          true,
		Country:        country,
		Target:         target,
		Vertical:       v.Name,
		VerticalIdx:    f.dubiousIdx[di],
		PortfolioSize:  clampInt(int(f.fraudSizeLN.Sample()), 1, 30),
		KeywordsPerAd:  clampInt(1+stats.Geometric(rng, 0.35), 1, 20),
		BuildPerDay:    30, // fraud builds out immediately — time is short
		ChurnRate:      rng.Range(0, 0.05),
		MaintainRate:   rng.Range(0.05, 0.4),
		MatchMix:       mix,
		BidScale:       clamp(f.fraudBidLN.Sample(), 0.2, 5),
		DefaultBidProb: 0.72,
		KeywordSkew:    rng.Range(1.3, 2.2), // spread across the pocket's clusters
		PocketStart:    0,                   // the head terms: traffic before subtlety
		PocketSpan:     6 + rng.Intn(8),     // the affiliate program's keyword pocket
		// Deceptive creatives are engineered to be clicked ("Effectively-
		// targeted ads will increase the likelihood that a user will
		// click" §5), so their intrinsic quality rivals legitimate ads;
		// the match-precision discount still leaves fraud CTR slightly
		// below non-fraud per impression (§4.2).
		Quality:       clamp(0.60+0.12*rng.NormFloat64(), 0.05, 0.92),
		Scamminess:    rng.Range(0.15, 0.9),
		Evasion:       rng.Range(0.1, 0.9),
		StolenPayment: rng.Bool(0.75),
		NumDomains:    1 + stats.Geometric(rng, 0.6),
		UsesShared:    rng.Bool(0.25),
	}
	if prolific {
		p.Class = ClassFraudProlific
		p.PortfolioSize = clampInt(p.PortfolioSize*3, 4, 60)
		p.KeywordsPerAd = clampInt(p.KeywordsPerAd*2, 4, 40)
		// The biggest spenders "pay more per click than almost everyone
		// else" (§4.2) and run higher-quality creatives that blend in —
		// "successful fraudulent advertisers target their audiences
		// similarly to legitimate advertisers" (§5.2), including exact
		// bids on their core queries.
		p.BidScale = clamp(p.BidScale*rng.Range(1.4, 2.4), 1.0, 8)
		p.DefaultBidProb = 0.35
		p.Quality = clamp(p.Quality+rng.Range(0.05, 0.15), 0.2, 0.95)
		e := rng.Range(0.3, 0.6)
		ph := rng.Range(0.5, 0.9) * (1 - e)
		p.MatchMix = [3]float64{e, ph, 1 - e - ph}
		p.Scamminess *= 0.35 // fewer complaints: the product half-exists
		p.Evasion = clamp(p.Evasion+0.2, 0, 0.95)
		// "The most prolific fraudulent advertisers even pay their (very
		// large) bills" (§7).
		p.StolenPayment = rng.Bool(0.25)
		p.NumDomains += 2 + stats.Geometric(rng, 0.3)
	}
	if f.pocketsDisabled {
		p.PocketStart, p.PocketSpan = 0, 0
	}
	return p
}

// Recidivate derives the next-generation profile of a caught fraudulent
// actor: same operation (class, vertical, market), fresh infrastructure
// (domains, payment instruments), more evasion effort — and a burned
// identity trail that the pipeline holds against it.
func (f *Factory) Recidivate(prev Profile) Profile {
	rng := f.fraudRNG
	p := prev
	p.Generation++
	p.Evasion = clamp(p.Evasion+rng.Range(0.05, 0.2), 0, 0.95)
	p.StolenPayment = rng.Bool(0.8) // the old instrument is blacklisted
	p.NumDomains = 1 + stats.Geometric(rng, 0.5)
	// A banned vertical is a dead business; the actor pivots.
	if p.Vertical == verticals.TechSupport && f.techSupportBanned {
		next := f.NewFraud()
		next.Generation = p.Generation
		return next
	}
	return p
}
