package main

import (
	"fmt"
	"strings"
	"testing"
)

const pairsSpec = `{"end_to_end": [
  {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
  {"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.25}
]}`

// resultLines renders one bench result line per (ops, p50) sample.
func resultLines(failed int, samples ...[2]float64) string {
	var sb strings.Builder
	for _, s := range samples {
		fmt.Fprintf(&sb, `{"correct":true,"attempted":100,"failed":%d,"metrics":{"ops_per_s":{"value":%g,"unit":"1/s"},"op_p50_us":{"value":%g,"unit":"us"}}}`+"\n",
			failed, s[0], s[1])
	}
	return sb.String()
}

// ten builds ten samples: ops steps by 1 from ops0, p50 is fixed.
func ten(ops0, p50 float64) [][2]float64 {
	out := make([][2]float64, 10)
	for i := range out {
		out[i] = [2]float64{ops0 + float64(i), p50}
	}
	return out
}

func runPairsOn(t *testing.T, oldBody, newBody string) (int, string, string) {
	t.Helper()
	spec := writeReport(t, "BENCHMARK.json", pairsSpec)
	return runDiff(t, "-pairs", "-benchmark", spec,
		writeReport(t, "old.jsonl", oldBody), writeReport(t, "new.jsonl", newBody))
}

// metricBlock returns the lines of out that report one metric.
func metricBlock(t *testing.T, out, metric string) string {
	t.Helper()
	i := strings.Index(out, metric+" (")
	if i < 0 {
		t.Fatalf("no block for %s:\n%s", metric, out)
	}
	lines := strings.SplitN(out[i:], "\n", 5)
	return strings.Join(lines[:4], "\n")
}

func TestPairsGainNeedsWinsAndGapBeyondIQR(t *testing.T) {
	// Old 100..109 (IQR 5.5), new 120..129: wins 10/10, gap 20 > 5.5;
	// p50 moves 8000 -> 7000 on every pair, old IQR 0.
	code, out, _ := runPairsOn(t, resultLines(0, ten(100, 8000)...), resultLines(0, ten(120, 7000)...))
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	for _, m := range []string{"ops_per_s", "op_p50_us"} {
		if b := metricBlock(t, out, m); !strings.Contains(b, "new wins 10/10") || !strings.Contains(b, "GAIN") {
			t.Fatalf("%s not judged a gain:\n%s", m, b)
		}
	}
	if b := metricBlock(t, out, "ops_per_s"); !strings.Contains(b, "old median 104.5  quartiles 101.8 .. 107.2") {
		t.Fatalf("exclusive-method quartiles of 100..109 not reported:\n%s", b)
	}

	// The same medians with only 8 wins of 10 are not a gain.
	news := ten(120, 7000)
	news[0][0], news[1][0] = 99, 100 // lose pairs 1 and 2
	_, out, _ = runPairsOn(t, resultLines(0, ten(100, 8000)...), resultLines(0, news...))
	if b := metricBlock(t, out, "ops_per_s"); !strings.Contains(b, "new wins 8/10") || strings.Contains(b, "GAIN") {
		t.Fatalf("8/10 wins judged a gain:\n%s", b)
	}

	// Ten wins by less than the parent's own spread are not a gain either.
	_, out, _ = runPairsOn(t, resultLines(0, ten(100, 8000)...), resultLines(0, ten(101, 8000)...))
	if b := metricBlock(t, out, "ops_per_s"); !strings.Contains(b, "new wins 10/10") || !strings.Contains(b, "within bound") {
		t.Fatalf("a gap inside the old IQR judged a gain:\n%s", b)
	}
	if b := metricBlock(t, out, "op_p50_us"); !strings.Contains(b, "(10 ties)") {
		t.Fatalf("ties not counted apart from wins:\n%s", b)
	}
}

func TestPairsRegressionBeyondBoundFails(t *testing.T) {
	// ops falls 100 -> 70 (-30 %, bound 25 %); p50 rises 8000 -> 9000
	// (+12.5 %, inside its bound).
	code, out, _ := runPairsOn(t, resultLines(0, ten(100, 8000)...), resultLines(0, ten(70, 9000)...))
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	if b := metricBlock(t, out, "ops_per_s"); !strings.Contains(b, "REGRESSION") {
		t.Fatalf("ops_per_s -30%% not a regression:\n%s", b)
	}
	if b := metricBlock(t, out, "op_p50_us"); !strings.Contains(b, "within bound") {
		t.Fatalf("op_p50_us +12.5%% not within its bound:\n%s", b)
	}
}

func TestPairsWideParentSpreadIsUnresolved(t *testing.T) {
	// Old ops alternate 60/140 (median 100, IQR 80 > 25 % of 100), new sit
	// at 95: the median moved -5 %, but the parent's own runs spread wider
	// than the bound, so the runs cannot tell. p50 is steady on both sides.
	olds, news := ten(0, 8000), ten(0, 8000)
	for i := range olds {
		olds[i][0], news[i][0] = 60+80*float64(i%2), 95
	}
	code, out, _ := runPairsOn(t, resultLines(0, olds...), resultLines(0, news...))
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	if b := metricBlock(t, out, "ops_per_s"); !strings.Contains(b, "unresolved") {
		t.Fatalf("ops_per_s with old IQR beyond the bound not unresolved:\n%s", b)
	}
	if b := metricBlock(t, out, "op_p50_us"); !strings.Contains(b, "within bound") {
		t.Fatalf("steady op_p50_us not within bound:\n%s", b)
	}

	// Every new run above every old run resolves it, wide spread or not.
	for i := range news {
		news[i][0] = 150
	}
	_, out, _ = runPairsOn(t, resultLines(0, olds...), resultLines(0, news...))
	if b := metricBlock(t, out, "ops_per_s"); strings.Contains(b, "unresolved") {
		t.Fatalf("every new run beats every old run, still unresolved:\n%s", b)
	}
}

func TestPairsZeroOldMedianPrintsNoPercent(t *testing.T) {
	olds, news := ten(100, 0), ten(100, 0)
	code, out, _ := runPairsOn(t, resultLines(0, olds...), resultLines(0, news...))
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	if b := metricBlock(t, out, "op_p50_us"); !strings.Contains(b, "(n/a)") || strings.Contains(b, "NaN") {
		t.Fatalf("zero old median not guarded:\n%s", b)
	}
}

func TestPairsLargerFailedShareFails(t *testing.T) {
	code, out, _ := runPairsOn(t, resultLines(0, ten(100, 8000)...), resultLines(1, ten(120, 7000)...))
	if code != 1 || !strings.Contains(out, "failed: old 0 of 1000, new 10 of 1000") {
		t.Fatalf("exit %d, want 1 with the failure counts\n%s", code, out)
	}
}

func TestPairsInputErrors(t *testing.T) {
	good := resultLines(0, ten(100, 8000)...)
	for name, tc := range map[string][2]string{
		"unequal run counts": {good, resultLines(0, ten(100, 8000)[:9]...)},
		"no runs":            {"", ""},
		"not a result line":  {good, strings.Repeat(`{"bench":"dayloop"}`+"\n", 10)},
		"metric missing":     {good, strings.Repeat(`{"metrics":{"ops_per_s":{"value":1}}}`+"\n", 10)},
	} {
		if code, out, errw := runPairsOn(t, tc[0], tc[1]); code != 2 || errw == "" {
			t.Errorf("%s: exit %d, err %q\n%s", name, code, errw, out)
		}
	}
	if code, _, _ := runDiff(t, "-pairs", "only.jsonl"); code != 2 {
		t.Errorf("one file accepted: exit %d", code)
	}
}
