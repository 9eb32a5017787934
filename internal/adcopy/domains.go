package adcopy

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// Shared third-party domains that serve both fraudulent and non-fraudulent
// traffic and therefore cannot be blacklisted outright. Fraudulent
// advertisers mostly use domains "unique to that account", with URL
// shorteners and affiliate program domains the shared exceptions (§5.2.4).
var (
	Shorteners = []string{"bit.ly", "tinyurl.com", "goo.gl", "ow.ly"}
	Affiliates = []string{"maxbounty.com", "clickbank.net", "cj.com", "shareasale.com"}
)

var domainWords = []string{
	"best", "top", "my", "the", "go", "get", "pro", "fast", "easy", "smart",
	"deal", "shop", "buy", "save", "prime", "mega", "ultra", "quick", "star",
	"first", "plus", "max", "net", "web", "site", "hub", "zone", "spot",
	"store", "mart", "world", "land", "place", "point", "direct", "express",
}

var tlds = []string{".com", ".net", ".info", ".biz", ".org", ".co"}

// DomainGenerator mints advertiser domains. Uniqueness is guaranteed per
// generator by a serial suffix on collision.
type DomainGenerator struct {
	rng  *stats.RNG
	used map[string]bool
	seq  int
}

// NewDomainGenerator returns a domain generator over the given RNG.
func NewDomainGenerator(rng *stats.RNG) *DomainGenerator {
	return &DomainGenerator{rng: rng, used: make(map[string]bool)}
}

// Unique mints a fresh domain never returned before by this generator.
func (g *DomainGenerator) Unique() string {
	for {
		w1 := domainWords[g.rng.Intn(len(domainWords))]
		w2 := domainWords[g.rng.Intn(len(domainWords))]
		tld := tlds[g.rng.Intn(len(tlds))]
		d := w1 + w2 + tld
		if g.rng.Bool(0.3) {
			g.seq++
			d = fmt.Sprintf("%s%s%d%s", w1, w2, g.seq, tld)
		}
		if !g.used[d] {
			g.used[d] = true
			return d
		}
		g.seq++
	}
}

// DomainGeneratorState is the serializable state of a DomainGenerator:
// the RNG stream position plus the uniqueness bookkeeping (issued domains
// and the serial-suffix counter), both of which must survive a checkpoint
// or a restored run could re-issue a previously minted domain.
type DomainGeneratorState struct {
	RNG  stats.RNGState
	Used []string
	Seq  int
}

// State captures the generator's state. Used is emitted sorted so the
// snapshot bytes are deterministic.
func (g *DomainGenerator) State() DomainGeneratorState {
	used := make([]string, 0, len(g.used))
	for d := range g.used {
		used = append(used, d)
	}
	sort.Strings(used)
	return DomainGeneratorState{RNG: g.rng.State(), Used: used, Seq: g.seq}
}

// SetState overwrites the generator's state with a snapshot captured by
// State.
func (g *DomainGenerator) SetState(st DomainGeneratorState) {
	g.rng.SetState(st.RNG)
	g.used = make(map[string]bool, len(st.Used))
	for _, d := range st.Used {
		g.used[d] = true
	}
	g.seq = st.Seq
}

// Shortener returns one of the shared URL-shortener domains.
func (g *DomainGenerator) Shortener() string {
	return Shorteners[g.rng.Intn(len(Shorteners))]
}

// Affiliate returns one of the shared affiliate-program domains.
func (g *DomainGenerator) Affiliate() string {
	return Affiliates[g.rng.Intn(len(Affiliates))]
}
