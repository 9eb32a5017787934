package verticals

import (
	"math"
	"testing"
)

func TestQuerySharesNormalized(t *testing.T) {
	total := 0.0
	for _, v := range All() {
		if v.QueryShare <= 0 {
			t.Fatalf("%s non-positive query share", v.Name)
		}
		total += v.QueryShare
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("query shares sum to %v", total)
	}
}

func TestDubiousSubset(t *testing.T) {
	names := map[Vertical]bool{}
	for _, v := range All() {
		if v.Dubious {
			names[v.Name] = true
		}
	}
	if len(names) != 11 {
		t.Fatalf("want 11 dubious verticals, got %d", len(names))
	}
	for _, want := range []Vertical{TechSupport, Downloads, Luxury, Flights, Wrinkles,
		Impersonation, WeightLoss, Shopping, Games, Chronic, Phishing} {
		if !names[want] {
			t.Fatalf("missing dubious vertical %s", want)
		}
	}
}

func TestGetAndIndexAgree(t *testing.T) {
	for i, v := range All() {
		got, ok := Get(v.Name)
		if !ok || got.Name != v.Name {
			t.Fatalf("Get(%s) failed", v.Name)
		}
		if Index(v.Name) != i {
			t.Fatalf("Index(%s) = %d, want %d", v.Name, Index(v.Name), i)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("Get of unknown vertical succeeded")
	}
	if Index("nope") != -1 {
		t.Fatal("Index of unknown vertical")
	}
}

func TestIsDubious(t *testing.T) {
	if !IsDubious(TechSupport) || !IsDubious(Phishing) {
		t.Fatal("dubious verticals misclassified")
	}
	if IsDubious("insurance") || IsDubious("nope") {
		t.Fatal("clean/unknown verticals misclassified")
	}
}

func TestFraudAppealOnlyOnDubious(t *testing.T) {
	for _, v := range All() {
		if !v.Dubious && v.FraudAppeal != 0 {
			t.Fatalf("clean vertical %s has fraud appeal %v", v.Name, v.FraudAppeal)
		}
		if v.Dubious && v.FraudAppeal <= 0 {
			t.Fatalf("dubious vertical %s has no fraud appeal", v.Name)
		}
	}
}

func TestEveryVerticalHasBaseTerms(t *testing.T) {
	for _, v := range All() {
		if len(v.BaseTerms) == 0 {
			t.Fatalf("%s has no base terms", v.Name)
		}
		if v.Keywords < len(v.BaseTerms) {
			t.Fatalf("%s keyword budget %d below base terms %d", v.Name, v.Keywords, len(v.BaseTerms))
		}
		if v.BidLevel <= 0 || v.ProductPrice <= 0 {
			t.Fatalf("%s has non-positive economics", v.Name)
		}
	}
}

func TestTechSupportEconomics(t *testing.T) {
	ts, _ := Get(TechSupport)
	// Techsupport sells hundreds-of-dollars support calls at premium bid
	// levels (§5.2.1); the simulation depends on it being the high-value
	// fraud vertical.
	if ts.ProductPrice < 200 || ts.BidLevel < 2 {
		t.Fatalf("techsupport economics too weak: price=%v bid=%v", ts.ProductPrice, ts.BidLevel)
	}
}

func TestDownloadsIsTopFraudAppeal(t *testing.T) {
	dl, _ := Get(Downloads)
	for _, v := range dubious {
		if v.Name != Downloads && v.Name != TechSupport && v.FraudAppeal > dl.FraudAppeal {
			t.Fatalf("%s appeal %v exceeds downloads %v — downloads should lead clicks (§5.2.1)",
				v.Name, v.FraudAppeal, dl.FraudAppeal)
		}
	}
}
