package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/stats"
)

// logWriter sends a run's log to the test's.
type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

// TestSmoke runs every workload, untraced and traced, at the tiny scale.
// BENCH_FULL=1 runs them at full size instead (minutes; the numbers are
// the benchmark's).
func TestSmoke(t *testing.T) {
	o := options{seed: 42, seconds: 0.3, tiny: true}
	if os.Getenv("BENCH_FULL") == "1" {
		o = options{seed: 42, seconds: 15}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := o
			o.trace = traced
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				if o.tiny {
					t.Parallel() // the tiny numbers mean nothing; only the wall time of the test does
				}
				smoke(t, o, w.name)
			})
		}
	}
}

func smoke(t *testing.T, o options, name string) {
	o.out = t.TempDir()
	res, err := execute(o, name, logWriter{t})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Errorf("%d of %d checks failed", res.Failed, res.Attempted)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %+v (present %v)", d.name, m, ok)
		}
		if !o.trace && m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, must be positive", d.name, m.Value)
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the tables in this package.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Why    string  `json:"why"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []entry  `json:"workloads"`
		EndToEnd  []entry  `json:"end_to_end"`
		PerLayer  []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s / %s", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, d)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer)
}

func TestQuantiles(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// The percentiles the workloads report are internal/stats' nearest
	// rank: an observed sample, the lower middle one of an even count.
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}, {1, 10}} {
		if got := stats.Quantile(asc, c.p); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if q1, q2, q3 := quartiles(nil); q1 != 0 || q2 != 0 || q3 != 0 || spread(nil) != 0 {
		t.Error("empty input must read 0")
	}
	if q1, q2, q3 := quartiles([]float64{7}); q1 != 7 || q2 != 7 || q3 != 7 {
		t.Errorf("quartiles of one sample = %v, %v, %v, want 7 each", q1, q2, q3)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
	// The median slice of a saturation phase: unsorted input, odd count.
	if got := stats.Median([]float64{13493, 11673, 11298, 11679, 12000}); got != 11679 {
		t.Errorf("median slice = %v, want 11679", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles(asc); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, %v, want 2.75, 5.5, 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	if q1, q2, q3 := quartiles([]float64{4, 3, 2, 1}); q1 != 1.25 || q2 != 2.5 || q3 != 3.75 {
		t.Errorf("quartiles = %v, %v, %v, want 1.25, 2.5, 3.75", q1, q2, q3)
	}
	if got := spread(asc); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestBestDecile(t *testing.T) {
	// Fifteen windows, nine of them caught by a noise burst: the median
	// window reads the noisy level, the best decile the quiet one.
	lat := []float64{80, 121, 125, 119, 130, 81, 79, 122, 128, 120, 83, 124, 82, 127, 78}
	if got := stats.Median(lat); got != 120 {
		t.Errorf("median window = %v, want 120", got)
	}
	if got := best(lat, true); got != 79 { // second best of 15, not the single best
		t.Errorf("best(lower) = %v, want 79", got)
	}
	rps := []float64{9000, 13900, 9100, 14100, 8800, 14000, 9050, 13800, 9200, 8900}
	if got := best(rps, false); got != 14100 { // one window is a tenth of ten
		t.Errorf("best(higher) = %v, want 14100", got)
	}
	if got := best(append(rps, rps...), false); got != 14100 {
		t.Errorf("best(higher) of 20 = %v, want 14100 (the second of two 14100s)", got)
	}
	if best(nil, true) != 0 || best(nil, false) != 0 {
		t.Error("empty input must read 0")
	}

	sum := func(v []float64) float64 { return stats.Mean(v) * float64(len(v)) }
	if got := windowed([]float64{1, 2, 3, 4, 5, 6, 7}, 3, sum); len(got) != 2 || got[0] != 6 || got[1] != 15 {
		t.Errorf("windowed = %v, want [6 15] (the short last window dropped)", got)
	}
	if got := windowed([]float64{1, 2}, 3, sum); len(got) != 1 || got[0] != 3 {
		t.Errorf("windowed of less than one window = %v, want [3]", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	sp := func(id, parent int, start, end int64) span {
		return span{ID: id, Parent: parent, StartNS: ms(start), EndNS: ms(end)}
	}
	spans := []span{
		sp(1, 0, 0, 100),  // root
		sp(2, 1, 10, 40),  // two overlapping children (concurrent clients)
		sp(3, 1, 30, 60),  //   cover [10, 60) = 50
		sp(4, 1, 80, 120), // runs past the parent: clipped to [80, 100) = 20
		sp(5, 2, 10, 20),  // nested: taken from its parent 2, not from the root
		sp(6, 0, 0, 7),    // no children
		sp(7, 6, 3, 3),    // empty child
	}
	want := map[int]int64{1: 30, 2: 20, 3: 30, 4: 40, 5: 10, 6: 7, 7: 0}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != time.Duration(ms(w)) {
			t.Errorf("self time of span %d = %v, want %dms", id, got[id], w)
		}
	}
	var total, self time.Duration
	for _, nt := range totalsByName(spans) {
		total += nt.total
		self += nt.self
	}
	if total != time.Duration(ms(100+30+30+40+10+7)) || self != time.Duration(ms(137)) {
		t.Errorf("totals by name: total %v self %v", total, self)
	}
}

func TestTracerNilAndWrite(t *testing.T) {
	var none *tracer
	none.end(none.begin(0, "x"), 1) // a nil tracer records nothing and does not panic
	none.add(0, "y", time.Now(), time.Second, 1)

	tr := newTracer("w")
	root := tr.begin(0, "run")
	tr.add(root, "child", time.Now(), time.Millisecond, 3)
	tr.end(root, 2)
	path := t.TempDir() + "/spans.jsonl"
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var got []span
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[0].Name != "run" || got[0].N != 2 || got[1].Parent != root || got[1].Workload != "w" {
		t.Errorf("spans read back: %+v", got)
	}
}

func TestParseArgs(t *testing.T) {
	// The driver's spelling: double dashes, --trace as a separate 0|1.
	o, err := parseArgs([]string{"--workload", "durable", "--seed", "7", "--seconds", "10", "--trace", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.workloads) != 1 || o.workloads[0] != "durable" || o.seed != 7 || o.seconds != 10 || !o.trace {
		t.Errorf("parsed %+v", o)
	}
	if o, err := parseArgs(nil, io.Discard); err != nil || len(o.workloads) != len(workloads) || o.seed != 42 {
		t.Errorf("defaults: %+v, %v", o, err)
	}
	for _, bad := range [][]string{{"--workload", "nope"}, {"--trace", "2"}, {"--seconds", "0"}, {"stray"}} {
		if _, err := parseArgs(bad, io.Discard); err == nil {
			t.Errorf("parseArgs(%v) accepted", bad)
		}
	}
}
