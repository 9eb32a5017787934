package metrics

import (
	"encoding/json"
	"testing"
	"time"
)

func rec(class string, sent, ok, shed, errs uint64, lat time.Duration) *ClassRecorder {
	r := &ClassRecorder{Class: class, Sent: sent, OK: ok, Shed: shed, Errors: errs}
	for i := uint64(0); i < ok; i++ {
		r.Latency.Observe(lat)
	}
	return r
}

func TestBuildReportRollsUpClasses(t *testing.T) {
	recs := []*ClassRecorder{rec("tail", 10, 9, 1, 0, 2*time.Millisecond), rec("head", 20, 19, 0, 1, time.Millisecond)}
	rep := BuildReport(recs, time.Second)

	if len(rep.Classes) != 2 {
		t.Fatalf("want 2 classes, got %d", len(rep.Classes))
	}
	// Classes come out sorted by name regardless of recorder order.
	if rep.Classes[0].Class != "head" || rep.Classes[1].Class != "tail" {
		t.Fatalf("classes not sorted: %s, %s", rep.Classes[0].Class, rep.Classes[1].Class)
	}
	if rep.Classes[0].Sent != 20 || rep.Classes[0].OK != 19 || rep.Classes[0].Latency.Count != 19 {
		t.Fatalf("head report wrong: %+v", rep.Classes[0])
	}
	if rep.Total.Sent != 30 || rep.Total.OK != 28 || rep.Total.Shed != 1 || rep.Total.Errors != 1 || rep.Total.Latency.Count != 28 {
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
	// BuildReport must not mutate its inputs: neither the recorders nor
	// the order of the slice.
	if recs[0].Class != "tail" || recs[0].Sent != 10 || recs[1].Sent != 20 {
		t.Fatalf("BuildReport mutated its input: %+v, %+v", recs[0], recs[1])
	}
}

func TestReportRates(t *testing.T) {
	r := rec("c", 100, 80, 15, 5, time.Millisecond).Report()
	if r.ShedRate != 0.15 || r.ErrRate != 0.05 {
		t.Fatalf("rates: shed %g err %g", r.ShedRate, r.ErrRate)
	}
	empty := (&ClassRecorder{Class: "e"}).Report()
	if empty.ShedRate != 0 || empty.ErrRate != 0 {
		t.Fatalf("empty class rates must be 0: %+v", empty)
	}
}

func TestRunReportNormalizeIsByteStable(t *testing.T) {
	build := func(lat time.Duration, wall time.Duration) []byte {
		recs := []*ClassRecorder{rec("a", 7, 7, 0, 0, lat), rec("b", 3, 3, 0, 0, lat*3)}
		rep := BuildReport(recs, wall).Normalize()
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
	rep := BuildReport([]*ClassRecorder{rec("a", 10, 10, 0, 0, 1), rec("b", 10, 0, 10, 0, 1)}, time.Second)
	if rep.Fairness != 0 {
		t.Fatalf("starved class should zero fairness, got %g", rep.Fairness)
	}
	// Classes that sent nothing are excluded.
	rep = BuildReport([]*ClassRecorder{rec("a", 10, 10, 0, 0, 1), rec("idle", 0, 0, 0, 0, 1)}, time.Second)
	if rep.Fairness != 1 {
		t.Fatalf("idle class must not affect fairness, got %g", rep.Fairness)
	}
}
