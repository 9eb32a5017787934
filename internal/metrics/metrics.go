package metrics

import (
	"slices"
	"strings"
	"time"
)

// ClassRecorder accumulates one traffic class's results over a run. Not
// safe for concurrent use: the load generator folds each request's
// outcome into it after every request has answered.
type ClassRecorder struct {
	Class   string
	Sent    uint64 // requests issued
	OK      uint64 // 2xx responses
	Shed    uint64 // 429 from the serving stack (admission control)
	Errors  uint64 // 5xx / transport failures after retries
	NoMatch uint64 // 2xx with an empty ad block
	Ads     uint64 // placements served
	Clicks  uint64 // clicked placements
	Retries uint64 // extra attempts beyond the first
	Latency LatencyHistogram
}

// Merge folds other into r.
func (r *ClassRecorder) Merge(other *ClassRecorder) {
	r.Sent += other.Sent
	r.OK += other.OK
	r.Shed += other.Shed
	r.Errors += other.Errors
	r.NoMatch += other.NoMatch
	r.Ads += other.Ads
	r.Clicks += other.Clicks
	r.Retries += other.Retries
	r.Latency.Merge(&other.Latency)
}

// ClassReport is the wire form of one class's results.
type ClassReport struct {
	Class    string  `json:"class"`
	Sent     uint64  `json:"sent"`
	OK       uint64  `json:"ok"`
	Shed     uint64  `json:"shed"`
	Errors   uint64  `json:"errors"`
	NoMatch  uint64  `json:"no_match"`
	Ads      uint64  `json:"ads"`
	Clicks   uint64  `json:"clicks"`
	Retries  uint64  `json:"retries"`
	ShedRate float64 `json:"shed_rate"`
	ErrRate  float64 `json:"error_rate"`
	Latency  Summary `json:"latency"`
}

// Report reduces a recorder to its wire form.
func (r *ClassRecorder) Report() ClassReport {
	rep := ClassReport{
		Class:   r.Class,
		Sent:    r.Sent,
		OK:      r.OK,
		Shed:    r.Shed,
		Errors:  r.Errors,
		NoMatch: r.NoMatch,
		Ads:     r.Ads,
		Clicks:  r.Clicks,
		Retries: r.Retries,
		Latency: r.Latency.Summarize(),
	}
	if r.Sent > 0 {
		rep.ShedRate = float64(r.Shed) / float64(r.Sent)
		rep.ErrRate = float64(r.Errors) / float64(r.Sent)
	}
	return rep
}

// RunReport aggregates every class plus cluster-wide rollups.
type RunReport struct {
	Classes   []ClassReport `json:"classes"`
	Total     ClassReport   `json:"total"`
	Fairness  float64       `json:"fairness"` // min/max per-class success ratio, 1 = perfectly fair
	WallNS    int64         `json:"wall_ns"`
	OfferedQS float64       `json:"offered_qps"` // scheduled arrivals / wall time
}

// BuildReport reduces one recorder per class into a RunReport, the
// classes sorted by name. wall is the run's wall time (zero when
// normalizing for goldens). It never mutates its inputs.
func BuildReport(recs []*ClassRecorder, wall time.Duration) RunReport {
	sorted := slices.Clone(recs)
	slices.SortFunc(sorted, func(a, b *ClassRecorder) int { return strings.Compare(a.Class, b.Class) })

	var rep RunReport
	total := &ClassRecorder{Class: "total"}
	for _, m := range sorted {
		rep.Classes = append(rep.Classes, m.Report())
		total.Merge(m)
	}
	rep.Total = total.Report()
	rep.Fairness = fairness(rep.Classes)
	rep.WallNS = int64(wall)
	if wall > 0 {
		rep.OfferedQS = float64(total.Sent) / wall.Seconds()
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
