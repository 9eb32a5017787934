// Package queries generates the synthetic search-query stream the ad
// network serves against. Real query logs are proprietary; what the
// reproduction needs from them is (a) a heavy-tailed keyword popularity
// distribution within each vertical, (b) a realistic market mix, and (c) a
// mix of query forms (bare keyword, keyword-with-extra-words, reordered)
// that exercises the three match types of §5.3. The generator provides all
// three deterministically from a seed.
package queries

import (
	"fmt"

	"repro/internal/adcopy"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/verticals"
)

// Query is a single search event as the auction sees it. VerticalIdx and
// CountryIdx are the positions of Vertical and Country in verticals.All()
// and market.All(); Cluster is the keyword's cluster in its vertical's
// universe.
type Query struct {
	VerticalIdx int
	Vertical    verticals.Vertical
	KeywordID   int
	Cluster     int
	Form        platform.QueryForm
	CountryIdx  int
	Country     market.Country
}

// Generator produces queries. It draws from the shared keyword universe
// of each vertical (handed to agents through Universe) with per-vertical
// Zipf samplers for keyword popularity.
type Generator struct {
	rng       *stats.RNG
	countries *market.Sampler
	verts     []verticals.Info
	vertW     []float64
	universes []*adcopy.Universe
	zipfs     []*stats.Zipf
}

// FormMix is the stationary distribution of query forms. Ad-clicking
// traffic concentrates on short head queries — the bare keyword — with a
// smaller share carrying extra context words and a tail reordered/mixed.
var FormMix = [3]float64{0.60, 0.27, 0.13} // bare, extended, reordered

// NewGenerator constructs a query generator over the process's shared
// keyword universes (adcopy.Universes), so every generator, and every
// agent drawing keywords through one, observes identical keyword IDs.
func NewGenerator(rng *stats.RNG) *Generator {
	g := &Generator{
		rng:       rng,
		countries: market.NewTrafficSampler(rng.ForkNamed("query-countries")),
		verts:     verticals.All(),
		universes: adcopy.Universes(),
	}
	g.vertW = make([]float64, len(g.verts))
	g.zipfs = make([]*stats.Zipf, len(g.verts))
	zrng := rng.ForkNamed("query-zipf")
	for i, v := range g.verts {
		g.vertW[i] = v.QueryShare
		g.zipfs[i] = stats.NewZipf(zrng.ForkNamed(string(v.Name)), 1.45, 2.0, uint64(g.universes[i].Size()))
	}
	return g
}

// GeneratorState is the serializable state of a Generator: every RNG
// stream position it owns. The vertical weights and Zipf shape parameters
// are pure functions of the verticals table and are rebuilt by
// NewGenerator; the keyword universes are too, and are shared, built once
// per process.
type GeneratorState struct {
	RNG       stats.RNGState
	Countries stats.RNGState
	Zipfs     []stats.RNGState
}

// State captures the generator's RNG stream positions.
func (g *Generator) State() GeneratorState {
	st := GeneratorState{
		RNG:       g.rng.State(),
		Countries: g.countries.RNG().State(),
		Zipfs:     make([]stats.RNGState, len(g.zipfs)),
	}
	for i, z := range g.zipfs {
		st.Zipfs[i] = z.RNG().State()
	}
	return st
}

// SetState restores stream positions captured by State onto a generator
// built by NewGenerator with the same verticals table.
func (g *Generator) SetState(st GeneratorState) error {
	if len(st.Zipfs) != len(g.zipfs) {
		return fmt.Errorf("queries: snapshot has %d zipf streams, generator has %d", len(st.Zipfs), len(g.zipfs))
	}
	g.rng.SetState(st.RNG)
	g.countries.RNG().SetState(st.Countries)
	for i, z := range g.zipfs {
		z.RNG().SetState(st.Zipfs[i])
	}
	return nil
}

// Universe returns the keyword universe for the vertical at index i in
// verticals.All() order.
func (g *Generator) Universe(i int) *adcopy.Universe { return g.universes[i] }

// UniverseFor returns the universe for a named vertical, or nil.
func (g *Generator) UniverseFor(v verticals.Vertical) *adcopy.Universe {
	i := verticals.Index(v)
	if i < 0 {
		return nil
	}
	return g.universes[i]
}

// Next draws the next query.
func (g *Generator) Next() Query {
	vi := stats.Categorical(g.rng, g.vertW)
	kw := int(g.zipfs[vi].Uint64())
	u := g.universes[vi]
	var form platform.QueryForm
	switch r := g.rng.Float64(); {
	case r < FormMix[0]:
		form = platform.FormBare
	case r < FormMix[0]+FormMix[1]:
		form = platform.FormExtended
	default:
		form = platform.FormReordered
	}
	ci := g.countries.SampleIndex()
	return Query{
		VerticalIdx: vi,
		Vertical:    g.verts[vi].Name,
		KeywordID:   kw,
		Cluster:     u.Keywords[kw].Cluster,
		Form:        form,
		CountryIdx:  ci,
		Country:     market.All()[ci].Country,
	}
}
