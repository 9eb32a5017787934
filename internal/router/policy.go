package router

import (
	"sync/atomic"

	"repro/internal/stats"
)

// Policy picks which eligible backend serves a request. Pick receives
// the hash of the request's affinity key (FNV-1a of its search phrase,
// else of its path) and a non-empty candidate slice in member order; it
// must be safe for concurrent use and must return one of the candidates
// (or nil to refuse, which the router treats as no backend).
type Policy interface {
	Name() string
	Pick(key uint64, cands []*Backend) *Backend
}

// RoundRobin rotates through the candidate set with a shared counter:
// the i-th pick takes cands[i % len]. With a stable member set the
// rotation is exact; under churn the counter keeps cycling over
// whatever is eligible.
type RoundRobin struct {
	n atomic.Uint64
}

// NewRoundRobin returns a round-robin policy starting at the first
// member.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

func (p *RoundRobin) Name() string { return "round_robin" }

func (p *RoundRobin) Pick(_ uint64, cands []*Backend) *Backend {
	return cands[int((p.n.Add(1)-1)%uint64(len(cands)))]
}

// LeastLoaded picks the candidate with the smallest in-flight load —
// the larger of the router-local gauge and the backend's self-reported
// admission count — breaking ties by member index so the choice is
// deterministic.
type LeastLoaded struct{}

func (LeastLoaded) Name() string { return "least_loaded" }

func (LeastLoaded) Pick(_ uint64, cands []*Backend) *Backend {
	best := cands[0]
	bestLoad := best.load()
	for _, b := range cands[1:] {
		l := b.load()
		if l < bestLoad || (l == bestLoad && b.idx < best.idx) {
			best, bestLoad = b, l
		}
	}
	return best
}

// Affinity routes by rendezvous (highest-random-weight) hashing of the
// affinity key against member names: a key always lands on the same
// member while that member is eligible, and removing a member remaps
// only that member's keys — the stability that keeps per-instance page
// and response caches hot through churn.
type Affinity struct{}

func (Affinity) Name() string { return "affinity" }

// Pick scores each (key, member) pair by FNV-1a over the key, a
// separator and the member name, continued from the key's hash.
func (Affinity) Pick(key uint64, cands []*Backend) *Backend {
	key = stats.FNV1a(key, "\x1f") // separator so ("ab","c") != ("a","bc")
	best := cands[0]
	bestScore := stats.FNV1a(key, best.Name)
	for _, b := range cands[1:] {
		if s := stats.FNV1a(key, b.Name); s > bestScore || (s == bestScore && b.idx < best.idx) {
			best, bestScore = b, s
		}
	}
	return best
}

// PolicyByName maps scenario-spec names to policies.
func PolicyByName(name string) (Policy, bool) {
	switch name {
	case "round_robin", "rr", "":
		return NewRoundRobin(), true
	case "least_loaded", "ll":
		return LeastLoaded{}, true
	case "affinity", "aff":
		return Affinity{}, true
	}
	return nil, false
}
