// Package adcopy generates the textual surface of the ad network: keyword
// universes per vertical, ad titles and bodies (Table 2's sample ads),
// advertiser domains and destination URLs, and the blacklist-evasion
// transforms fraudulent advertisers apply (§5.2.4 — lookalike characters,
// diacritics, obfuscated phone numbers).
package adcopy

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/stats"
	"repro/internal/verticals"
)

// modifiers are generic qualifiers combined with a vertical's base terms to
// build its keyword universe. Terms like "best", "free" or "online" are
// "used by legitimate and illegitimate advertisers alike" (§5.2.4), which
// is what makes keyword blacklisting ineffective against careful fraud.
var modifiers = []string{
	"", "best", "cheap", "free", "online", "top", "new", "discount",
	"official", "buy", "review", "deals", "sale", "near me", "2017",
	"how to", "compare", "premium", "fast", "instant", "trusted",
	"guaranteed", "original", "quality", "low cost", "professional",
}

// Keyword is one biddable keyword phrase, pre-tokenized for the matcher.
// Cluster groups keywords derived from the same base term; the ad platform
// treats keywords in one cluster as "similar" for broad matching ("any
// keywords that Bing determines to be similar" — §5.3).
type Keyword struct {
	ID      int
	Cluster int
	Phrase  string
	Tokens  []string
}

// Universe is the full keyword set of one vertical, with a Zipfian
// popularity ranking: index 0 is the most-searched keyword.
type Universe struct {
	Vertical verticals.Vertical
	Keywords []Keyword
}

// BuildUniverse deterministically constructs the keyword universe for a
// vertical: every base term, then base × modifier combinations, then
// numbered variants until Info.Keywords phrases exist. The construction
// consumes no randomness, so universes are identical across runs and the
// keyword ID space is stable.
func BuildUniverse(v verticals.Info) *Universe {
	u := &Universe{Vertical: v.Name}
	seen := make(map[string]bool)
	add := func(phrase string, cluster int) {
		phrase = strings.TrimSpace(phrase)
		if phrase == "" || seen[phrase] || len(u.Keywords) >= v.Keywords {
			return
		}
		seen[phrase] = true
		u.Keywords = append(u.Keywords, Keyword{
			ID:      len(u.Keywords),
			Cluster: cluster,
			Phrase:  phrase,
			Tokens:  Tokenize(phrase),
		})
	}
	for c, t := range v.BaseTerms {
		add(t, c)
	}
	for _, m := range modifiers {
		for c, t := range v.BaseTerms {
			if m == "" {
				continue
			}
			add(m+" "+t, c)
		}
	}
	// Numbered long-tail variants fill out the remainder of the universe.
	for i := 0; len(u.Keywords) < v.Keywords; i++ {
		c := i % len(v.BaseTerms)
		add(fmt.Sprintf("%s %s %d", v.BaseTerms[c], "option", i), c)
	}
	return u
}

// Universes returns every vertical's keyword universe in verticals.All()
// order. A universe is a pure function of the compiled-in verticals table
// and is never mutated, so the table is built once per process and every
// caller shares it.
var Universes = sync.OnceValue(func() []*Universe {
	all := verticals.All()
	us := make([]*Universe, len(all))
	for i, v := range all {
		us[i] = BuildUniverse(v)
	}
	return us
})

// Size returns the number of keywords in the universe.
func (u *Universe) Size() int { return len(u.Keywords) }

// Tokenize lower-cases and splits a phrase into canonical tokens,
// normalizing trivial plural forms the way the ad platform "normalizes for
// misspellings, plurals, acronyms and other minor grammatical variations"
// across match types (§5.3).
func Tokenize(phrase string) []string {
	fields := strings.Fields(strings.ToLower(phrase))
	out := make([]string, 0, len(fields))
	for _, f := range fields {
		if t := CanonicalToken(f); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// CanonicalToken normalizes a single token: strip surrounding punctuation,
// fold a trailing plural 's' on words of four letters or more. The two
// rules are applied to a fixed point so the result is idempotent — a
// plural fold can expose more trailing punctuation ("cats)" → "cat") and
// vice versa ("dog's" → "dog"), and the matcher relies on canonical
// tokens canonicalizing to themselves.
func CanonicalToken(tok string) string {
	for {
		prev := tok
		tok = strings.Trim(tok, ".,;:!?\"'()[]")
		if len(tok) >= 4 && strings.HasSuffix(tok, "s") && !strings.HasSuffix(tok, "ss") {
			tok = tok[:len(tok)-1]
		}
		if tok == prev {
			return tok
		}
	}
}

// KeywordSampler draws distinct keyword IDs from the universe with
// popularity bias (lower-ranked keywords more likely), modeling advertisers
// preferring head terms. With tight budgets fraudulent advertisers bid on
// very few keywords (Figure 7b), so draws are often tiny.
//
// A sampler is built once per (skew, pocket) and reused, such as by an
// agent creating ads every day: the Zipf rejection sampler's
// precomputation (several exp/log calls plus a heap object) is paid once
// at construction instead of per draw. Construction consumes no
// randomness, so caching a sampler never perturbs a seeded run.
type KeywordSampler struct {
	lo    int
	width int
	z     *stats.Zipf
}

// NewKeywordSampler prepares a sampler over the universe's popularity
// band [lo, lo+span) (the whole universe when span == 0).
//
// The band is the "keyword pocket" of an affiliate program. Fraudulent
// advertisers working the same programs converge on the same pockets —
// popular enough to carry traffic, but offset from the absolute head terms
// the big legitimate advertisers saturate. That convergence is what drives
// the extreme fraud-vs-fraud competition of Figures 10–11. Legitimate
// advertisers pass (0, 0) to sample the whole universe.
func (u *Universe) NewKeywordSampler(rng *stats.RNG, skew float64, lo, span int) *KeywordSampler {
	limit := len(u.Keywords)
	if lo < 0 || lo >= limit {
		lo = 0
	}
	if span > 0 && lo+span < limit {
		limit = lo + span
	}
	if skew < 1.01 {
		skew = 1.01
	}
	s := &KeywordSampler{lo: lo, width: limit - lo}
	if s.width > 0 {
		s.z = stats.NewZipf(rng, skew, 1, uint64(s.width))
	}
	return s
}

// SampleInto appends n distinct keyword IDs to out (pass a truncated
// scratch buffer; prior contents count as already chosen) and returns the
// extended slice. Rejection of duplicates consumes the RNG stream; the
// duplicate bookkeeping is a linear scan over the tiny result.
func (s *KeywordSampler) SampleInto(out []int, n int) []int {
	if s.width == 0 {
		return out
	}
	if n >= s.width {
		for i := 0; i < s.width; i++ {
			out = append(out, s.lo+i)
		}
		return out
	}
	for len(out) < n {
		id := s.lo + int(s.z.Uint64())
		dup := false
		for _, have := range out {
			if have == id {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, id)
		}
	}
	return out
}
