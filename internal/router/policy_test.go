package router

import (
	"fmt"
	"testing"

	"repro/internal/stats"
)

// mkBackends builds a member list without a router (policies only see
// the slice).
func mkBackends(n int) []*Backend {
	out := make([]*Backend, n)
	for i := range out {
		out[i] = &Backend{Name: fmt.Sprintf("b%d:80", i), idx: i}
	}
	return out
}

// TestRoundRobinRotationPin pins the exact rotation: with a stable
// member set the i-th pick is cands[i % n], starting at the first
// member.
func TestRoundRobinRotationPin(t *testing.T) {
	p := NewRoundRobin()
	cands := mkBackends(3)
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := p.Pick(stats.FNV1a(stats.FNVOffset, "k"), cands); got != cands[w] {
			t.Fatalf("pick %d: got %s, want %s", i, got.Name, cands[w].Name)
		}
	}
	// A shrunken candidate set keeps cycling without panic.
	for i := 0; i < 4; i++ {
		if got := p.Pick(stats.FNV1a(stats.FNVOffset, "k"), cands[:2]); got != cands[0] && got != cands[1] {
			t.Fatalf("pick over shrunk set returned ineligible %s", got.Name)
		}
	}
}

// TestLeastLoadedTieBreak pins determinism: equal load always picks
// the lowest member index, and the load signal is the max of the local
// gauge and the backend's self-report.
func TestLeastLoadedTieBreak(t *testing.T) {
	p := LeastLoaded{}
	cands := mkBackends(3)
	for i := 0; i < 5; i++ {
		if got := p.Pick(stats.FNV1a(stats.FNVOffset, "k"), cands); got != cands[0] {
			t.Fatalf("all-zero load must pick index 0, got %s", got.Name)
		}
	}
	cands[0].inflight.Store(2)
	cands[1].inflight.Store(1)
	cands[2].inflight.Store(1)
	if got := p.Pick(stats.FNV1a(stats.FNVOffset, "k"), cands); got != cands[1] {
		t.Fatalf("tie at load 1 must pick lower index, got %s", got.Name)
	}
	// Self-reported load counts even when the local gauge is idle: the
	// backend may be serving traffic from elsewhere.
	cands[1].reported.Store(5)
	if got := p.Pick(stats.FNV1a(stats.FNVOffset, "k"), cands); got != cands[2] {
		t.Fatalf("reported load must steer away, got %s", got.Name)
	}
	if cands[1].load() != 5 {
		t.Fatalf("load() must take max(local, reported), got %d", cands[1].load())
	}
}

// TestAffinityStableUnderChurn pins the rendezvous property: a key maps
// to the same member across calls, and removing one member remaps only
// the keys that lived there — every other key keeps its home.
func TestAffinityStableUnderChurn(t *testing.T) {
	p := Affinity{}
	cands := mkBackends(5)
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("query phrase %d", i)
	}

	home := make(map[string]*Backend, len(keys))
	for _, k := range keys {
		home[k] = p.Pick(stats.FNV1a(stats.FNVOffset, k), cands)
		if p.Pick(stats.FNV1a(stats.FNVOffset, k), cands) != home[k] {
			t.Fatalf("key %q not stable across calls", k)
		}
	}
	// Keys spread over more than one member (sanity that hashing works).
	seen := map[*Backend]bool{}
	for _, b := range home {
		seen[b] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all %d keys landed on one member", len(keys))
	}

	// Remove member 2: only its keys may move, and they must land on a
	// surviving member.
	removed := cands[2]
	survivors := append(append([]*Backend{}, cands[:2]...), cands[3:]...)
	for _, k := range keys {
		got := p.Pick(stats.FNV1a(stats.FNVOffset, k), survivors)
		if home[k] != removed {
			if got != home[k] {
				t.Fatalf("key %q moved from %s to %s though its home survived", k, home[k].Name, got.Name)
			}
		} else if got == removed {
			t.Fatalf("key %q still routed to removed member", k)
		}
	}
}

func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]string{
		"round_robin": "round_robin", "rr": "round_robin", "": "round_robin",
		"least_loaded": "least_loaded", "ll": "least_loaded",
		"affinity": "affinity", "aff": "affinity",
	} {
		p, ok := PolicyByName(name)
		if !ok || p.Name() != want {
			t.Fatalf("PolicyByName(%q) = %v, %v", name, p, ok)
		}
	}
	if _, ok := PolicyByName("bogus"); ok {
		t.Fatal("bogus policy resolved")
	}
}
