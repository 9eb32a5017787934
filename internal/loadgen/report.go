package loadgen

import (
	"math"
	"slices"
	"strings"
	"time"
)

// Summary is the wire form of a latency distribution: its extremes and
// the standard quantiles, in nanoseconds so the report is
// integer-stable.
type Summary struct {
	Count uint64 `json:"count"`
	MinNS int64  `json:"min_ns"`
	P50NS int64  `json:"p50_ns"`
	P90NS int64  `json:"p90_ns"`
	P99NS int64  `json:"p99_ns"`
	P999  int64  `json:"p999_ns"`
	MaxNS int64  `json:"max_ns"`
}

// summarize sorts lat in place and returns its exact summary: each
// quantile is the nearest-rank order statistic, the definition
// stats.Quantile uses. An empty lat summarizes to zeros.
func summarize(lat []time.Duration) Summary {
	n := len(lat)
	if n == 0 {
		return Summary{}
	}
	slices.Sort(lat)
	rank := func(q float64) int64 {
		return int64(lat[max(int(math.Ceil(q*float64(n)))-1, 0)])
	}
	return Summary{
		Count: uint64(n),
		MinNS: int64(lat[0]),
		P50NS: rank(0.50),
		P90NS: rank(0.90),
		P99NS: rank(0.99),
		P999:  rank(0.999),
		MaxNS: int64(lat[n-1]),
	}
}

// Normalize zeroes every wall-time-derived field of a Summary, leaving
// only the count — the transform the golden scenario report applies so
// byte comparison survives host speed differences.
func (s Summary) Normalize() Summary {
	return Summary{Count: s.Count}
}

// ClassReport is the wire form of one class's results.
type ClassReport struct {
	Class   string `json:"class"`
	Sent    uint64 `json:"sent"`     // requests issued
	OK      uint64 `json:"ok"`       // 2xx with a decoded ad block
	Shed    uint64 `json:"shed"`     // 429s: the cluster was at admission capacity
	Errors  uint64 `json:"errors"`   // any other status, or a transport failure
	NoMatch uint64 `json:"no_match"` // 2xx with an empty ad block
	Ads     uint64 `json:"ads"`      // placements served
	Clicks  uint64 `json:"clicks"`   // clicked placements
	// Retries is always 0: the runner never retries. The key stays so
	// the report's format does not change.
	Retries  uint64  `json:"retries"`
	ShedRate float64 `json:"shed_rate"`
	ErrRate  float64 `json:"error_rate"`
	Latency  Summary `json:"latency"` // over every request sent, whatever its answer
}

// classReport reduces one class's outcomes to its wire form.
func classReport(class string, outs []outcome) ClassReport {
	r := ClassReport{Class: class, Sent: uint64(len(outs))}
	lat := make([]time.Duration, len(outs))
	for i, o := range outs {
		lat[i] = o.latency
		switch o.status {
		case statusOK:
			r.OK++
			if o.ads == 0 {
				r.NoMatch++
			}
			r.Ads += uint64(o.ads)
			r.Clicks += uint64(o.clicks)
		case statusShed:
			r.Shed++
		default:
			r.Errors++
		}
	}
	r.Latency = summarize(lat)
	if r.Sent > 0 {
		r.ShedRate = float64(r.Shed) / float64(r.Sent)
		r.ErrRate = float64(r.Errors) / float64(r.Sent)
	}
	return r
}

// RunReport aggregates every class plus cluster-wide rollups.
type RunReport struct {
	Classes   []ClassReport `json:"classes"`
	Total     ClassReport   `json:"total"`
	Fairness  float64       `json:"fairness"` // min/max per-class success ratio, 1 = perfectly fair
	WallNS    int64         `json:"wall_ns"`
	OfferedQS float64       `json:"offered_qps"` // scheduled arrivals / wall time
}

// buildReport reduces each class's outcomes, byClass[i] those of
// classes[i], into a RunReport whose classes are sorted by name and
// whose total is computed over every outcome. wall is the run's wall
// time (zero when normalizing for goldens). It never mutates its inputs.
func buildReport(classes []Class, byClass [][]outcome, wall time.Duration) RunReport {
	var rep RunReport
	for i, c := range classes {
		rep.Classes = append(rep.Classes, classReport(c.Name, byClass[i]))
	}
	slices.SortFunc(rep.Classes, func(a, b ClassReport) int { return strings.Compare(a.Class, b.Class) })
	rep.Total = classReport("total", slices.Concat(byClass...))
	rep.Fairness = fairness(rep.Classes)
	rep.WallNS = int64(wall)
	if wall > 0 {
		rep.OfferedQS = float64(rep.Total.Sent) / wall.Seconds()
	}
	return rep
}

// fairness is the min/max ratio of per-class success rates (OK/Sent)
// over classes that sent anything: 1.0 means every class got the same
// share of successful service, 0 means some class was starved entirely.
func fairness(classes []ClassReport) float64 {
	min, max := -1.0, -1.0
	for _, c := range classes {
		if c.Sent == 0 {
			continue
		}
		rate := float64(c.OK) / float64(c.Sent)
		if min < 0 || rate < min {
			min = rate
		}
		if rate > max {
			max = rate
		}
	}
	if max <= 0 {
		return 0
	}
	if min < 0 {
		return 0
	}
	return min / max
}

// Normalize zeroes every wall-time-derived field in the report (latency
// quantiles, wall time, offered rate), leaving the deterministic
// counters — the golden form.
func (r RunReport) Normalize() RunReport {
	out := r
	out.Classes = make([]ClassReport, len(r.Classes))
	for i, c := range r.Classes {
		c.Latency = c.Latency.Normalize()
		out.Classes[i] = c
	}
	out.Total.Latency = out.Total.Latency.Normalize()
	out.WallNS = 0
	out.OfferedQS = 0
	return out
}
