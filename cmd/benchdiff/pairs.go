package main

// The -pairs mode: judge paired runs of the repository benchmark (the
// program BENCHMARK.json declares, see bench/README.md) by the rule the
// merge pipeline applies. `make bench-pair` produces the two files.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the verdict needs: each
// end-to-end metric's direction and the bound it may worsen by.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// benchResult is the last line a bench run prints.
type benchResult struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// The claim rule: the change wins at least minWinShare of the pairs
// (ties count for neither side) and the medians differ by more than the
// distance between the quartiles of the parent's runs.
const minWinShare = 0.9

// runPairs prints, per end-to-end metric, both sides' medians and
// quartiles, the change's wins over the pairs and a verdict: GAIN by the
// claim rule, REGRESSION when the change's median is worse than the
// parent's by more than the metric's bound, otherwise "within bound" —
// or "unresolved" when the parent's own IQR is wider than that bound, so
// the runs cannot tell, unless every run of the change beats every run
// of the parent. Line i of oldPath pairs with line i of newPath. It
// returns 1 on any regression or when a larger share of operations
// failed, 2 on bad input.
func runPairs(specPath, oldPath, newPath string, out, errw io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(errw, "benchdiff: %v\n", err)
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile(specPath)
	if err != nil {
		return fail(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fail(fmt.Errorf("%s: %w", specPath, err))
	}
	if len(spec.EndToEnd) == 0 {
		return fail(fmt.Errorf("%s: no end_to_end metrics", specPath))
	}
	olds, err := loadResults(oldPath)
	if err != nil {
		return fail(err)
	}
	news, err := loadResults(newPath)
	if err != nil {
		return fail(err)
	}
	if len(olds) == 0 || len(olds) != len(news) {
		return fail(fmt.Errorf("%d old and %d new runs: need the same number, at least one", len(olds), len(news)))
	}
	n := len(olds)
	fmt.Fprintf(out, "%d pairs (old = %s, new = %s)\n", n, oldPath, newPath)

	code := 0
	for _, m := range spec.EndToEnd {
		// sign turns "better" into "greater": +1 when higher is better.
		sign := 1.0
		if m.Better == "lower" {
			sign = -1
		}
		ov, nv := make([]float64, n), make([]float64, n)
		wins, ties := 0, 0
		bestOld, worstNew := math.Inf(-1), math.Inf(1) // in "greater is better" terms
		for i := range olds {
			o, okO := olds[i].Metrics[m.Name]
			w, okN := news[i].Metrics[m.Name]
			if !okO || !okN {
				return fail(fmt.Errorf("pair %d: metric %s missing", i+1, m.Name))
			}
			ov[i], nv[i] = o.Value, w.Value
			bestOld = math.Max(bestOld, sign*o.Value)
			worstNew = math.Min(worstNew, sign*w.Value)
			switch d := sign * (w.Value - o.Value); {
			case d > 0:
				wins++
			case d == 0:
				ties++
			}
		}
		oq1, omed, oq3 := quartiles(ov)
		nq1, nmed, nq3 := quartiles(nv)
		iqr := oq3 - oq1
		gap := sign * (nmed - omed) // > 0: the change's median is better
		verdict := "within bound"
		switch {
		case float64(wins) >= minWinShare*float64(n) && gap > iqr:
			verdict = "GAIN"
		case -gap > m.Bound*omed:
			verdict = "REGRESSION"
			code = 1
		case iqr > m.Bound*math.Abs(omed) && worstNew <= bestOld:
			verdict = "unresolved"
		}
		fmt.Fprintf(out, "%s (%s, %s is better)\n", m.Name, m.Unit, m.Better)
		fmt.Fprintf(out, "  old median %.4g  quartiles %.4g .. %.4g\n", omed, oq1, oq3)
		fmt.Fprintf(out, "  new median %.4g  quartiles %.4g .. %.4g\n", nmed, nq1, nq3)
		pct := "n/a"
		if omed != 0 {
			pct = fmt.Sprintf("%+.1f%% of old", (nmed-omed)/omed*100)
		}
		fmt.Fprintf(out, "  new wins %d/%d (%d ties), median gap %.4g (%s) vs old IQR %.4g: %s\n",
			wins, n, ties, math.Abs(gap), pct, iqr, verdict)
	}

	of, oa := failures(olds)
	nf, na := failures(news)
	fmt.Fprintf(out, "failed: old %d of %d, new %d of %d\n", of, oa, nf, na)
	if float64(nf)*float64(oa) > float64(of)*float64(na) {
		fmt.Fprintln(out, "FAIL: a larger share of operations failed")
		code = 1
	}
	return code
}

// loadResults reads one bench result per non-empty line.
func loadResults(path string) ([]benchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rs []benchResult
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r benchResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if len(r.Metrics) == 0 {
			return nil, fmt.Errorf("%s:%d: no \"metrics\" — not a bench result line", path, line)
		}
		rs = append(rs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

func failures(rs []benchResult) (failed, attempted int) {
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

// quartiles returns the three cut points of the exclusive method
// (Python's statistics.quantiles(v, n=4)), which the benchmark's spread
// is defined on; q2 is the median that averages the two middle samples of
// an even count. One sample is all three.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
