package clicks

import (
	"math"
	"testing"

	"repro/internal/auction"
	"repro/internal/platform"
	"repro/internal/stats"
)

func placement(pos int, mainline bool, quality, rel float64) auction.Placement {
	return auction.Placement{
		Ref:       platform.BidRef{Ad: &platform.Ad{Quality: quality}},
		Position:  pos,
		Mainline:  mainline,
		Relevance: rel,
	}
}

func TestPositionBiasMonotone(t *testing.T) {
	m := DefaultModel()
	prev := math.Inf(1)
	for pos := 1; pos <= 4; pos++ {
		p := m.ClickProbability(placement(pos, true, 0.5, 1))
		if p > prev {
			t.Fatalf("mainline CTR not decreasing at position %d", pos)
		}
		prev = p
	}
}

func TestMainlineBeatsSidebar(t *testing.T) {
	m := DefaultModel()
	ml := m.ClickProbability(placement(4, true, 0.5, 1))
	sb := m.ClickProbability(placement(5, false, 0.5, 1))
	if ml <= sb {
		t.Fatalf("mainline bottom (%v) must beat sidebar top (%v)", ml, sb)
	}
	if ml/sb < 2 {
		t.Fatalf("mainline/sidebar gap too small: %v", ml/sb)
	}
}

func TestQualityAndRelevanceScaleCTR(t *testing.T) {
	m := DefaultModel()
	base := m.ClickProbability(placement(1, true, 0.4, 1))
	higherQ := m.ClickProbability(placement(1, true, 0.8, 1))
	if math.Abs(higherQ-2*base) > 1e-12 {
		t.Fatalf("CTR not linear in quality: %v vs %v", higherQ, base)
	}
	lowRel := m.ClickProbability(placement(1, true, 0.4, 0.5))
	if math.Abs(lowRel-base/2) > 1e-12 {
		t.Fatal("CTR not linear in relevance")
	}
}

func TestClickProbabilityCapped(t *testing.T) {
	m := DefaultModel()
	m.BaseCTR = 5 // absurd configuration
	if p := m.ClickProbability(placement(1, true, 1, 1)); p > 1 {
		t.Fatalf("probability %v > 1", p)
	}
}

func TestDeepPositionsClampToLastBias(t *testing.T) {
	m := DefaultModel()
	p9 := m.ClickProbability(placement(9, false, 0.5, 1))
	p20 := m.ClickProbability(placement(20, false, 0.5, 1))
	if p9 != p20 {
		t.Fatal("beyond-table positions should clamp")
	}
	if p9 <= 0 {
		t.Fatal("deep positions must retain nonzero examination")
	}
}

func TestSimulateFrequency(t *testing.T) {
	m := DefaultModel()
	rng := stats.NewRNG(1)
	pl := []auction.Placement{placement(1, true, 0.5, 1)}
	want := m.ClickProbability(pl[0])
	hits := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if len(m.SimulateInto(rng, pl, nil)) == 1 {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-want) > 0.005 {
		t.Fatalf("simulated CTR %v, want %v", got, want)
	}
}

func TestSimulateIntoReusesBuffer(t *testing.T) {
	m := DefaultModel()
	rng := stats.NewRNG(2)
	pls := []auction.Placement{
		placement(1, true, 0.9, 1),
		placement(2, true, 0.9, 1),
		placement(3, true, 0.9, 1),
	}
	buf := make([]int, 0, 8)
	for i := 0; i < 100; i++ {
		buf = m.SimulateInto(rng, pls, buf)
		for j := 1; j < len(buf); j++ {
			if buf[j] <= buf[j-1] {
				t.Fatal("clicked indices not strictly increasing")
			}
		}
		for _, idx := range buf {
			if idx < 0 || idx >= len(pls) {
				t.Fatalf("index %d out of range", idx)
			}
		}
	}
}

func TestSimulateEmptyPage(t *testing.T) {
	m := DefaultModel()
	if got := m.SimulateInto(stats.NewRNG(3), nil, nil); len(got) != 0 {
		t.Fatal("clicks on empty page")
	}
}
