package queries

import (
	"math"
	"testing"

	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/verticals"
)

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(stats.NewRNG(1))
	b := NewGenerator(stats.NewRNG(1))
	for i := 0; i < 1000; i++ {
		qa, qb := a.Next(), b.Next()
		if qa != qb {
			t.Fatalf("query %d diverged: %+v vs %+v", i, qa, qb)
		}
	}
}

func TestQueriesWellFormed(t *testing.T) {
	g := NewGenerator(stats.NewRNG(2))
	verts, markets := verticals.All(), market.All()
	for i := 0; i < 20000; i++ {
		q := g.Next()
		if q.VerticalIdx < 0 || q.VerticalIdx >= len(verts) {
			t.Fatalf("vertical index %d", q.VerticalIdx)
		}
		if verts[q.VerticalIdx].Name != q.Vertical {
			t.Fatal("vertical name/index mismatch")
		}
		u := g.Universe(q.VerticalIdx)
		if q.KeywordID < 0 || q.KeywordID >= u.Size() {
			t.Fatalf("keyword %d out of range", q.KeywordID)
		}
		if u.Keywords[q.KeywordID].Cluster != q.Cluster {
			t.Fatal("cluster mismatch")
		}
		if q.Form > platform.FormReordered {
			t.Fatalf("bad form %v", q.Form)
		}
		if q.CountryIdx < 0 || q.CountryIdx >= len(markets) || markets[q.CountryIdx].Country != q.Country {
			t.Fatalf("country %q / index %d mismatch", q.Country, q.CountryIdx)
		}
	}
}

func TestFormMixRespected(t *testing.T) {
	g := NewGenerator(stats.NewRNG(3))
	var counts [3]int
	const n = 100000
	for i := 0; i < n; i++ {
		counts[g.Next().Form]++
	}
	for f, want := range FormMix {
		got := float64(counts[f]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("form %d share %v, want %v", f, got, want)
		}
	}
}

func TestVerticalSharesRespected(t *testing.T) {
	g := NewGenerator(stats.NewRNG(4))
	counts := map[verticals.Vertical]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		counts[g.Next().Vertical]++
	}
	for _, v := range verticals.All() {
		got := float64(counts[v.Name]) / n
		if math.Abs(got-v.QueryShare) > 0.01 {
			t.Fatalf("%s share %v, want %v", v.Name, got, v.QueryShare)
		}
	}
}

func TestKeywordPopularityZipfian(t *testing.T) {
	g := NewGenerator(stats.NewRNG(5))
	vi := verticals.Index(verticals.Downloads)
	counts := make([]int, g.Universe(vi).Size())
	for i := 0; i < 100000; i++ {
		if q := g.Next(); q.VerticalIdx == vi {
			counts[q.KeywordID]++
		}
	}
	head, tail := 0, 0
	for i, c := range counts {
		if i < 20 {
			head += c
		} else {
			tail += c
		}
	}
	if head < tail {
		t.Fatalf("head 20 keywords (%d) should dominate the tail (%d)", head, tail)
	}
}

func TestUniverseFor(t *testing.T) {
	g := NewGenerator(stats.NewRNG(6))
	if g.UniverseFor(verticals.Luxury) == nil {
		t.Fatal("known vertical has no universe")
	}
	if g.UniverseFor("nope") != nil {
		t.Fatal("unknown vertical returned a universe")
	}
}

// TestGeneratorsShareUniverses: the keyword universes are built once per
// process, so a second generator — a restored sim's, an adserver's —
// reuses the first one's instead of rebuilding ~10 MB of keywords.
func TestGeneratorsShareUniverses(t *testing.T) {
	a, b := NewGenerator(stats.NewRNG(1)), NewGenerator(stats.NewRNG(2))
	for i := range verticals.All() {
		if a.Universe(i) != b.Universe(i) {
			t.Fatalf("vertical %d: two generators hold different universes", i)
		}
	}
	if n := testing.AllocsPerRun(10, func() { NewGenerator(stats.NewRNG(3)) }); n > 200 {
		t.Fatalf("NewGenerator allocates %.0f times, want at most 200", n)
	}
}
