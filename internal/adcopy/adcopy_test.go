package adcopy

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/verticals"
)

func TestBuildUniverseDeterministic(t *testing.T) {
	v, _ := verticals.Get(verticals.Downloads)
	a := BuildUniverse(v)
	b := BuildUniverse(v)
	if a.Size() != b.Size() {
		t.Fatal("sizes differ across builds")
	}
	for i := range a.Keywords {
		if a.Keywords[i].Phrase != b.Keywords[i].Phrase || a.Keywords[i].Cluster != b.Keywords[i].Cluster {
			t.Fatalf("keyword %d differs across builds", i)
		}
	}
}

func TestBuildUniverseSizeAndUniqueness(t *testing.T) {
	for _, v := range verticals.All() {
		u := BuildUniverse(v)
		if u.Size() != v.Keywords {
			t.Fatalf("%s universe size %d, want %d", v.Name, u.Size(), v.Keywords)
		}
		seen := map[string]bool{}
		for i, kw := range u.Keywords {
			if kw.ID != i {
				t.Fatalf("%s keyword %d has ID %d", v.Name, i, kw.ID)
			}
			if seen[kw.Phrase] {
				t.Fatalf("%s duplicate phrase %q", v.Name, kw.Phrase)
			}
			seen[kw.Phrase] = true
			if kw.Cluster < 0 || kw.Cluster >= len(v.BaseTerms) {
				t.Fatalf("%s keyword %q cluster %d out of range", v.Name, kw.Phrase, kw.Cluster)
			}
		}
	}
}

func TestClustersGroupBaseTerms(t *testing.T) {
	v, _ := verticals.Get(verticals.Luxury)
	u := BuildUniverse(v)
	// The first len(BaseTerms) keywords are the base terms, each its own
	// cluster; derived keywords must share their base term's cluster.
	for i := range v.BaseTerms {
		if u.Keywords[i].Cluster != i {
			t.Fatalf("base term %d in cluster %d", i, u.Keywords[i].Cluster)
		}
	}
	for _, kw := range u.Keywords {
		base := v.BaseTerms[kw.Cluster]
		if !strings.Contains(kw.Phrase, base) {
			t.Fatalf("keyword %q in cluster of %q but does not contain it", kw.Phrase, base)
		}
	}
}

func TestTokenizeNormalizes(t *testing.T) {
	got := Tokenize("Cheap Flights")
	if len(got) != 2 || got[0] != "cheap" || got[1] != "flight" {
		t.Fatalf("Tokenize = %v", got)
	}
	if CanonicalToken("bags,") != "bag" {
		t.Fatal("punctuation + plural folding failed")
	}
	if CanonicalToken("less") != "less" {
		t.Fatal("double-s word should not be singularized")
	}
	if CanonicalToken("gas") != "gas" {
		t.Fatal("3-letter words should not be singularized")
	}
}

func TestSampleKeywordsDistinctAndBounded(t *testing.T) {
	v, _ := verticals.Get(verticals.Downloads)
	u := BuildUniverse(v)
	rng := stats.NewRNG(1)
	f := func(n8, lo8, span8 uint8) bool {
		n := int(n8%50) + 1
		lo := int(lo8 % 40)
		span := int(span8 % 100)
		ids := u.NewKeywordSampler(rng, 1.8, lo, span).SampleInto(nil, n)
		limit := u.Size()
		if span > 0 && lo+span < limit {
			limit = lo + span
		}
		seen := map[int]bool{}
		for _, id := range ids {
			if id < lo || id >= limit || seen[id] {
				return false
			}
			seen[id] = true
		}
		return len(ids) == minInt(n, limit-lo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleKeywordsPocketBand(t *testing.T) {
	v, _ := verticals.Get(verticals.Downloads)
	u := BuildUniverse(v)
	rng := stats.NewRNG(12)
	for i := 0; i < 200; i++ {
		ids := u.NewKeywordSampler(rng, 2.0, 8, 20).SampleInto(nil, 5)
		for _, id := range ids {
			if id < 8 || id >= 28 {
				t.Fatalf("pocket violated: id %d not in [8, 28)", id)
			}
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestSampleKeywordsPopularityBias(t *testing.T) {
	v, _ := verticals.Get(verticals.Downloads)
	u := BuildUniverse(v)
	rng := stats.NewRNG(2)
	headHits := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		for _, id := range u.NewKeywordSampler(rng, 2.0, 0, 0).SampleInto(nil, 3) {
			if id < 20 {
				headHits++
			}
		}
	}
	if float64(headHits)/(trials*3) < 0.5 {
		t.Fatalf("head keywords underrepresented: %d/%d", headHits, trials*3)
	}
}

func TestLookalikeTransformChangesAndFolds(t *testing.T) {
	rng := stats.NewRNG(3)
	src := "coach outlet sale"
	changedOnce := false
	for i := 0; i < 50; i++ {
		out := LookalikeTransform(rng, src)
		if out != src {
			changedOnce = true
		}
		if FoldLookalikes(out) != src {
			t.Fatalf("fold did not invert transform: %q -> %q -> %q", src, out, FoldLookalikes(out))
		}
	}
	if !changedOnce {
		t.Fatal("transform never changed foldable text")
	}
}

func TestFoldLookalikesIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := FoldLookalikes(s)
		return FoldLookalikes(once) == once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestObfuscatePhonePreservesDigits(t *testing.T) {
	rng := stats.NewRNG(4)
	num := "1-800-555-1000"
	want := string(DigitsOf(num))
	for i := 0; i < 100; i++ {
		ob := ObfuscatePhone(rng, num)
		if got := string(DigitsOf(ob)); got != want {
			t.Fatalf("digits corrupted: %q -> %q (%q)", num, ob, got)
		}
	}
}

func TestCreativeGeneration(t *testing.T) {
	gen := NewGenerator(stats.NewRNG(5))
	c := gen.Creative(verticals.TechSupport, "printer support", "fixmyprinter.com", 0)
	if !c.HasPhone {
		t.Fatal("techsupport creative must advertise a phone number")
	}
	if !strings.Contains(c.DestURL, "fixmyprinter.com") {
		t.Fatalf("dest URL %q missing domain", c.DestURL)
	}
	if c.Title == "" || c.Body == "" {
		t.Fatal("empty creative text")
	}
}

func TestCreativeEvasionFlag(t *testing.T) {
	gen := NewGenerator(stats.NewRNG(6))
	evaded := 0
	for i := 0; i < 100; i++ {
		c := gen.Creative(verticals.TechSupport, "printer support", "x.com", 1.0)
		if c.EvasionUsed {
			evaded++
		}
	}
	if evaded < 90 {
		t.Fatalf("evade=1.0 applied only %d/100 times", evaded)
	}
	gen2 := NewGenerator(stats.NewRNG(7))
	for i := 0; i < 100; i++ {
		if gen2.Creative(verticals.Luxury, "coach bags", "x.com", 0).EvasionUsed {
			t.Fatal("evade=0 creative marked evasive")
		}
	}
}

func TestGenericTemplateFallback(t *testing.T) {
	gen := NewGenerator(stats.NewRNG(8))
	c := gen.Creative("insurance", "car insurance", "x.com", 0)
	if c.Title == "" || c.Body == "" {
		t.Fatal("generic template produced empty creative")
	}
}

func TestDomainGeneratorUnique(t *testing.T) {
	g := NewDomainGenerator(stats.NewRNG(9))
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		d := g.Unique()
		if seen[d] {
			t.Fatalf("duplicate domain %q at %d", d, i)
		}
		seen[d] = true
	}
}

func TestSharedDomains(t *testing.T) {
	g := NewDomainGenerator(stats.NewRNG(10))
	if !slices.Contains(Shorteners, g.Shortener()) || !slices.Contains(Affiliates, g.Affiliate()) {
		t.Fatal("shortener/affiliate not drawn from the shared lists")
	}
	if d := g.Unique(); slices.Contains(Shorteners, d) || slices.Contains(Affiliates, d) {
		t.Fatalf("unique domain %q is a shared one", d)
	}
}
