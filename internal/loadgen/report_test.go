package loadgen

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/stats"
)

// outs returns a class's outcomes: sent requests, of which ok answered
// 200, shed 429 and errs failed, each taking lat.
func outs(sent, ok, shed, errs int, lat time.Duration) []outcome {
	o := make([]outcome, sent)
	for i := range o {
		o[i].latency = lat
		switch {
		case i < ok:
			o[i].status = statusOK
		case i < ok+shed:
			o[i].status = statusShed
		case i < ok+shed+errs:
			o[i].status = statusFailed
		}
	}
	return o
}

func TestBuildReportRollsUpClasses(t *testing.T) {
	classes := []Class{{Name: "tail"}, {Name: "head"}}
	rep := buildReport(classes, [][]outcome{outs(10, 9, 1, 0, 2*time.Millisecond), outs(20, 19, 0, 1, time.Millisecond)}, time.Second)

	if len(rep.Classes) != 2 {
		t.Fatalf("want 2 classes, got %d", len(rep.Classes))
	}
	// Classes come out sorted by name regardless of input order.
	if rep.Classes[0].Class != "head" || rep.Classes[1].Class != "tail" {
		t.Fatalf("classes not sorted: %s, %s", rep.Classes[0].Class, rep.Classes[1].Class)
	}
	if rep.Classes[0].Sent != 20 || rep.Classes[0].OK != 19 || rep.Classes[0].Latency.Count != 20 {
		t.Fatalf("head report wrong: %+v", rep.Classes[0])
	}
	if rep.Total.Sent != 30 || rep.Total.OK != 28 || rep.Total.Shed != 1 || rep.Total.Errors != 1 || rep.Total.Latency.Count != 30 {
		t.Fatalf("total rollup wrong: %+v", rep.Total)
	}
	if rep.OfferedQS != 30 {
		t.Fatalf("offered qps: %g", rep.OfferedQS)
	}
	// head success 19/20 = 0.95, tail 9/10 = 0.9 -> fairness 0.9/0.95.
	want := (9.0 / 10.0) / (19.0 / 20.0)
	if diff := rep.Fairness - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("fairness = %g, want %g", rep.Fairness, want)
	}
	// buildReport must not reorder its input.
	if classes[0].Name != "tail" || classes[1].Name != "head" {
		t.Fatalf("buildReport reordered its input: %+v", classes)
	}
}

func TestReportRates(t *testing.T) {
	r := classReport("c", outs(100, 80, 15, 5, time.Millisecond))
	if r.ShedRate != 0.15 || r.ErrRate != 0.05 {
		t.Fatalf("rates: shed %g err %g", r.ShedRate, r.ErrRate)
	}
	empty := classReport("e", nil)
	if empty.ShedRate != 0 || empty.ErrRate != 0 {
		t.Fatalf("empty class rates must be 0: %+v", empty)
	}
}

func TestRunReportNormalizeIsByteStable(t *testing.T) {
	build := func(lat time.Duration, wall time.Duration) []byte {
		rep := buildReport([]Class{{Name: "a"}, {Name: "b"}}, [][]outcome{outs(7, 7, 0, 0, lat), outs(3, 3, 0, 0, lat*3)}, wall).Normalize()
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Two runs with wildly different latencies/wall times normalize to
	// identical bytes — the golden-report property.
	a := build(time.Millisecond, time.Second)
	b := build(40*time.Millisecond, 7*time.Second)
	if string(a) != string(b) {
		t.Fatalf("normalized reports differ:\n%s\nvs\n%s", a, b)
	}
}

func TestFairnessEdgeCases(t *testing.T) {
	if f := fairness(nil); f != 0 {
		t.Fatalf("no classes: %g", f)
	}
	// A fully starved class drives fairness to 0.
	rep := buildReport([]Class{{Name: "a"}, {Name: "b"}}, [][]outcome{outs(10, 10, 0, 0, 1), outs(10, 0, 10, 0, 1)}, time.Second)
	if rep.Fairness != 0 {
		t.Fatalf("starved class should zero fairness, got %g", rep.Fairness)
	}
	// Classes that sent nothing are excluded.
	rep = buildReport([]Class{{Name: "a"}, {Name: "idle"}}, [][]outcome{outs(10, 10, 0, 0, 1), nil}, time.Second)
	if rep.Fairness != 1 {
		t.Fatalf("idle class must not affect fairness, got %g", rep.Fairness)
	}
}

// TestReportQuantilesAreExact: every Summary, per class and in the
// total, carries the nearest-rank order statistics of the latencies it
// covers, as stats.Quantile defines them, not an estimate.
func TestReportQuantilesAreExact(t *testing.T) {
	rng := stats.NewRNG(5)
	byClass := make([][]outcome, 2)
	var all []float64
	for c, n := range []int{1000, 337} {
		for i := 0; i < n; i++ {
			// Log-uniform over about 1µs–1s: a bucketed estimate
			// would be off at every quantile.
			lat := time.Duration(math.Exp(rng.Range(7, 21)))
			byClass[c] = append(byClass[c], outcome{status: statusOK, latency: lat})
			all = append(all, float64(lat))
		}
	}
	classes := []Class{{Name: "a"}, {Name: "b"}}
	rep := buildReport(classes, byClass, time.Second)

	exact := func(lat []float64) Summary {
		q := func(p float64) int64 { return int64(stats.Quantile(lat, p)) }
		return Summary{Count: uint64(len(lat)), MinNS: q(0), P50NS: q(0.5), P90NS: q(0.9), P99NS: q(0.99), P999: q(0.999), MaxNS: q(1)}
	}
	for i, c := range rep.Classes {
		var lat []float64
		for _, o := range byClass[i] {
			lat = append(lat, float64(o.latency))
		}
		if want := exact(lat); c.Latency != want {
			t.Errorf("class %s: latency %+v, want %+v", c.Class, c.Latency, want)
		}
	}
	if want := exact(all); rep.Total.Latency != want {
		t.Errorf("total: latency %+v, want %+v", rep.Total.Latency, want)
	}
	// A small hand-checked case: ranks ceil(q·n) of 1..10 ms.
	var ten []outcome
	for i := 10; i >= 1; i-- {
		ten = append(ten, outcome{latency: time.Duration(i) * time.Millisecond})
	}
	ms := int64(time.Millisecond)
	want := Summary{Count: 10, MinNS: ms, P50NS: 5 * ms, P90NS: 9 * ms, P99NS: 10 * ms, P999: 10 * ms, MaxNS: 10 * ms}
	if got := classReport("ten", ten).Latency; got != want {
		t.Errorf("1..10 ms: latency %+v, want %+v", got, want)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if s := summarize(nil); s != (Summary{}) {
		t.Fatalf("no latencies should summarize to zeros: %+v", s)
	}
	s := summarize([]time.Duration{42})
	if want := (Summary{Count: 1, MinNS: 42, P50NS: 42, P90NS: 42, P99NS: 42, P999: 42, MaxNS: 42}); s != want {
		t.Fatalf("single latency: %+v, want %+v", s, want)
	}
}

func TestSummaryNormalize(t *testing.T) {
	s := summarize([]time.Duration{time.Millisecond, 2 * time.Millisecond}).Normalize()
	if s.Count != 2 {
		t.Fatalf("normalize must keep count, got %d", s.Count)
	}
	if s.MinNS != 0 || s.P50NS != 0 || s.P99NS != 0 || s.MaxNS != 0 {
		t.Fatalf("normalize must zero wall-time fields: %+v", s)
	}
}
