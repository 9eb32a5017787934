package market

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestTrafficSharesSumToOne(t *testing.T) {
	total := 0.0
	for _, m := range All() {
		if m.TrafficShare < 0 {
			t.Fatalf("%s negative traffic share", m.Country)
		}
		total += m.TrafficShare
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("traffic shares sum to %v", total)
	}
}

func TestGetKnownAndUnknown(t *testing.T) {
	if Get(US).Language != "en" || Get(US).Currency != "USD" {
		t.Fatal("US info wrong")
	}
	if Get(BR).Language != "pt" {
		t.Fatal("BR language")
	}
	if Get("ZZ").Country != Other {
		t.Fatal("unknown country must fall back to catch-all")
	}
}

func TestCountriesTableConsistency(t *testing.T) {
	seen := map[Country]bool{}
	for _, m := range All() {
		c := m.Country
		if seen[c] {
			t.Fatalf("duplicate country %s", c)
		}
		seen[c] = true
	}
}

func TestUSDefaultBidIsUnit(t *testing.T) {
	if Get(US).DefaultMaxBid != 1.0 {
		t.Fatal("US default max bid must be the normalization unit 1.0")
	}
}

func TestBrazilHasHighestSuccessFactor(t *testing.T) {
	br := Get(BR).SuccessFactor
	for _, m := range All() {
		if m.Country != BR && m.SuccessFactor >= br {
			t.Fatalf("%s success factor %v >= BR's %v — Brazil must have the least mature detection (Table 3)",
				m.Country, m.SuccessFactor, br)
		}
	}
}

func TestFraudRegistrationSamplerSkew(t *testing.T) {
	rng := stats.NewRNG(1)
	s := NewFraudRegistrationSampler(rng)
	counts := map[Country]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[s.Sample()]++
	}
	// US must dominate, IN second, per Table 1.
	if counts[US] < counts[IN] || counts[IN] < counts[BR] {
		t.Fatalf("fraud registration skew wrong: US=%d IN=%d BR=%d", counts[US], counts[IN], counts[BR])
	}
	usShare := float64(counts[US]) / n
	if usShare < 0.40 || usShare > 0.60 {
		t.Fatalf("US fraud registration share %v, want ~0.50", usShare)
	}
}

func TestTrafficSamplerMatchesShares(t *testing.T) {
	rng := stats.NewRNG(2)
	s := NewTrafficSampler(rng)
	counts := map[Country]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Sample()]++
	}
	for _, m := range All() {
		got := float64(counts[m.Country]) / n
		if math.Abs(got-m.TrafficShare) > 0.01 {
			t.Fatalf("%s sampled share %v, want %v", m.Country, got, m.TrafficShare)
		}
	}
}

func TestFraudTargetSamplerPrefersUS(t *testing.T) {
	rng := stats.NewRNG(3)
	s := NewFraudTargetSampler(rng)
	counts := map[Country]int{}
	for i := 0; i < 20000; i++ {
		counts[s.Sample()]++
	}
	if counts[US] <= counts[DE] || counts[US] <= counts[BR] {
		t.Fatalf("US must be the top fraud target: %v", counts)
	}
}

func TestNonfraudSamplerCoversMarkets(t *testing.T) {
	rng := stats.NewRNG(4)
	s := NewNonfraudRegistrationSampler(rng)
	counts := map[Country]int{}
	for i := 0; i < 20000; i++ {
		counts[s.Sample()]++
	}
	if len(counts) < 10 {
		t.Fatalf("legit registrations cover only %d markets", len(counts))
	}
}
