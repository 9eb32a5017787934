// Package market models the geographic dimension of the ad network:
// countries, languages, currencies, each market's share of search traffic,
// and each market's attractiveness to fraudulent advertisers.
//
// The paper reports that fraudulent advertisers overwhelmingly register
// from English-speaking countries (Table 1: US, IN, GB dominate) while
// fraudulent *clicks* concentrate in the US with Brazil carrying the
// highest fraud fraction of its own traffic (Table 3). The per-market
// weights below encode those registration and targeting preferences; the
// resulting click distributions are emergent from the simulation.
package market

import "repro/internal/stats"

// Country identifies a market by its ISO-3166 alpha-2 code.
type Country string

// The markets modeled by the simulator. Other is a catch-all for the long
// tail of small markets.
const (
	US    Country = "US"
	IN    Country = "IN"
	GB    Country = "GB"
	BR    Country = "BR"
	CA    Country = "CA"
	DE    Country = "DE"
	AU    Country = "AU"
	FR    Country = "FR"
	MX    Country = "MX"
	SE    Country = "SE"
	ES    Country = "ES"
	IT    Country = "IT"
	NL    Country = "NL"
	JP    Country = "JP"
	CN    Country = "CN"
	Other Country = "XX"
)

// Info describes a single market.
type Info struct {
	Country  Country
	Language string
	Currency string

	// TrafficShare is the market's share of overall search query volume.
	// Shares across All() sum to 1.
	TrafficShare float64

	// FraudRegWeight is the relative propensity of fraudulent advertisers
	// to register accounts declaring this home country (Table 1's "all
	// fraud" column shape).
	FraudRegWeight float64

	// NonfraudRegWeight is the equivalent for legitimate advertisers,
	// which roughly tracks traffic share.
	NonfraudRegWeight float64

	// FraudTargetWeight is the relative propensity of fraudulent
	// advertisers to *target* this market with campaigns (Table 3's
	// "% of fraud" column shape). Fraudsters by and large target ads in
	// their own country (§5.2.3), so this also modulates cross-market
	// targeting.
	FraudTargetWeight float64

	// SuccessFactor scales how effective fraud campaigns are in this
	// market (blacklist maturity, analyst language coverage, local
	// regulation — §5.2.3 speculates on these). Brazil's under-developed
	// blacklist gives it the highest fraud fraction of local traffic.
	SuccessFactor float64

	// DefaultMaxBid is the market's default maximum bid, normalized so
	// the US default is 1.0. The paper normalizes bid figures by "Bing's
	// US default maximum bid amount" (Figure 9).
	DefaultMaxBid float64
}

// all is the static market table. TrafficShare values sum to 1.
var all = []Info{
	{US, "en", "USD", 0.540, 50.3, 48.0, 38.0, 1.00, 1.00},
	{GB, "en", "GBP", 0.080, 14.3, 9.0, 4.0, 0.45, 1.00},
	{IN, "en", "INR", 0.020, 17.2, 4.0, 3.0, 0.90, 0.60},
	{BR, "pt", "BRL", 0.030, 2.5, 1.5, 14.0, 2.30, 0.70},
	{CA, "en", "CAD", 0.045, 1.7, 4.0, 7.0, 1.00, 0.95},
	{DE, "de", "EUR", 0.060, 1.5, 6.0, 28.0, 1.40, 1.00},
	{AU, "en", "AUD", 0.012, 1.8, 2.0, 1.5, 0.90, 0.95},
	{FR, "fr", "EUR", 0.055, 1.0, 5.5, 4.0, 0.40, 1.00},
	{MX, "es", "MXN", 0.040, 0.8, 1.2, 3.0, 0.55, 0.65},
	{SE, "sv", "SEK", 0.010, 0.6, 1.0, 1.5, 0.90, 1.00},
	{ES, "es", "EUR", 0.025, 0.7, 2.0, 0.6, 0.35, 0.90},
	{IT, "it", "EUR", 0.022, 0.6, 2.0, 0.5, 0.35, 0.90},
	{NL, "nl", "EUR", 0.018, 0.5, 1.5, 0.4, 0.35, 0.95},
	{JP, "ja", "JPY", 0.025, 0.4, 3.0, 0.3, 0.25, 0.90},
	{CN, "zh", "CNY", 0.008, 0.3, 1.0, 0.1, 0.20, 0.70},
	{Other, "en", "USD", 0.010, 6.0, 7.5, 0.1, 0.30, 0.80},
}

// All returns the full market table. The returned slice must not be
// modified.
func All() []Info { return all }

// Get returns the Info for a country; the catch-all market is returned for
// unknown codes.
func Get(c Country) Info {
	for _, m := range all {
		if m.Country == c {
			return m
		}
	}
	return all[len(all)-1]
}

// Sampler draws countries from a fixed weighting. Construct with one of
// the New*Sampler helpers; safe for single-goroutine use.
type Sampler struct {
	rng     *stats.RNG
	weights []float64
}

func newSampler(rng *stats.RNG, pick func(Info) float64) *Sampler {
	w := make([]float64, len(all))
	for i, m := range all {
		w[i] = pick(m)
	}
	return &Sampler{rng: rng, weights: w}
}

// NewTrafficSampler weights countries by overall search traffic share.
func NewTrafficSampler(rng *stats.RNG) *Sampler {
	return newSampler(rng, func(m Info) float64 { return m.TrafficShare })
}

// NewFraudRegistrationSampler weights countries by fraudulent-registration
// propensity (Table 1).
func NewFraudRegistrationSampler(rng *stats.RNG) *Sampler {
	return newSampler(rng, func(m Info) float64 { return m.FraudRegWeight })
}

// NewNonfraudRegistrationSampler weights countries by legitimate
// registration propensity.
func NewNonfraudRegistrationSampler(rng *stats.RNG) *Sampler {
	return newSampler(rng, func(m Info) float64 { return m.NonfraudRegWeight })
}

// NewFraudTargetSampler weights countries by fraud campaign targeting
// propensity (Table 3).
func NewFraudTargetSampler(rng *stats.RNG) *Sampler {
	return newSampler(rng, func(m Info) float64 { return m.FraudTargetWeight })
}

// RNG exposes the sampler's generator for checkpointing; the weights are
// pure functions of the static market table.
func (s *Sampler) RNG() *stats.RNG { return s.rng }

// Sample draws a country.
func (s *Sampler) Sample() Country { return all[s.SampleIndex()].Country }

// SampleIndex draws a country as its position in All(): the same draw as
// Sample, for callers that key on the integer.
func (s *Sampler) SampleIndex() int { return stats.Categorical(s.rng, s.weights) }
