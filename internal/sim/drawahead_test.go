package sim

// White-box pins for two serving-side mechanisms: the agents-phase
// draw-ahead (DESIGN.md §8 "Draw-ahead") costs no allocation per day,
// and the packed page key (DESIGN.md §7 "Eligibility/page cache") cannot
// collide.

import (
	"testing"

	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/queries"
	"repro/internal/verticals"
)

// TestDrawAheadAllocFree pins a day's draw-ahead — goroutine start, the
// draw, the join — at zero allocations once the query buffer exists.
func TestDrawAheadAllocFree(t *testing.T) {
	cfg := SmallConfig()
	s := New(cfg)
	day := func() {
		s.startDraw()
		s.joinDraw()
		if len(s.draw.qs) != cfg.QueriesPerDay {
			t.Fatalf("drew %d queries, want %d", len(s.draw.qs), cfg.QueriesPerDay)
		}
	}
	day() // the buffer's first and only allocation
	if avg := testing.AllocsPerRun(50, day); avg != 0 {
		t.Fatalf("draw-ahead allocates %.1f times per day, want 0", avg)
	}
}

// TestPageKeyInjective unpacks every key the real tables can produce —
// each vertical's whole keyword universe × every form × every country —
// back into the fields it was packed from. A packing with a left inverse
// is injective, so two query classes can never share a cached page.
func TestPageKeyInjective(t *testing.T) {
	gen := New(SmallConfig()).Queries()
	fieldMask := func(bits int) uint64 { return 1<<bits - 1 }
	for vi := range verticals.All() {
		for kw := 0; kw < gen.Universe(vi).Size(); kw++ {
			for form := platform.FormBare; form <= platform.FormReordered; form++ {
				for ci := range market.All() {
					q := queries.Query{VerticalIdx: vi, KeywordID: kw, Form: form, CountryIdx: ci}
					k := uint64(makePageKey(&q))
					back := queries.Query{
						KeywordID:   int(k & fieldMask(keyKeywordBits)),
						VerticalIdx: int(k >> keyVerticalShift & fieldMask(keyVerticalBits)),
						CountryIdx:  int(k >> keyCountryShift & fieldMask(keyCountryBits)),
						Form:        platform.QueryForm(k >> keyFormShift),
					}
					if back != q {
						t.Fatalf("key %#x of %+v unpacks to %+v", k, q, back)
					}
				}
			}
		}
	}
}

// TestPageKeyWidthsChecked: a table too wide for its field is refused
// with an error (newWired turns it into a panic at construction), and
// the exact width still passes.
func TestPageKeyWidthsChecked(t *testing.T) {
	if err := checkPageKeyWidths(1<<keyKeywordBits, 1<<keyVerticalBits, 1<<keyCountryBits); err != nil {
		t.Fatalf("tables that exactly fill their fields refused: %v", err)
	}
	for _, tc := range []struct {
		name                           string
		keywords, verticals, countries int
	}{
		{"keywords", 1<<keyKeywordBits + 1, 1, 1},
		{"verticals", 1, 1<<keyVerticalBits + 1, 1},
		{"countries", 1, 1, 1<<keyCountryBits + 1},
	} {
		if err := checkPageKeyWidths(tc.keywords, tc.verticals, tc.countries); err == nil {
			t.Errorf("over-wide %s accepted", tc.name)
		}
	}
}
