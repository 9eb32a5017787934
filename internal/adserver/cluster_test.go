package adserver

// Tests for the cluster-facing server surface added for the routed
// cluster: /statz, instance headers, and the per-instance response
// cache.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/verticals"
)

func clusterHandler(t *testing.T, s *Server) http.Handler {
	t.Helper()
	return s.Handler(Options{
		MaxInFlight: 8,
		InstanceID:  "i7",
		CacheSize:   2,
	})
}

func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestStatzEndpoint pins the /statz contract the router's health loop
// and the bench reports read: instance identity, admission capacity,
// served/shed counters, cache hit/miss split.
func TestStatzEndpoint(t *testing.T) {
	s, gen := serverFixture(t)
	h := clusterHandler(t, s)
	phrase := gen.UniverseFor(verticals.Downloads).Keywords[0].Phrase
	searchPath := "/search?q=" + url.QueryEscape(phrase) + "&country=US"

	read := func() Statz {
		rec := getPath(t, h, "/statz")
		if rec.Code != http.StatusOK {
			t.Fatalf("/statz status %d", rec.Code)
		}
		var z Statz
		if err := json.Unmarshal(rec.Body.Bytes(), &z); err != nil {
			t.Fatal(err)
		}
		return z
	}

	z := read()
	if z.Instance != "i7" || z.Capacity != 8 {
		t.Fatalf("statz identity: %+v", z)
	}
	if z.Served != 0 || z.CacheHits != 0 || z.CacheMiss != 0 {
		t.Fatalf("fresh server has history: %+v", z)
	}

	if rec := getPath(t, h, searchPath); rec.Code != http.StatusOK {
		t.Fatalf("search status %d", rec.Code)
	} else if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first search X-Cache = %q, want miss", got)
	}
	z = read()
	if z.Served != 1 || z.CacheMiss != 1 || z.CacheHits != 0 {
		t.Fatalf("after miss: %+v", z)
	}

	// The identical query hits the cache: same body, no new serve (a hit
	// is a replay, not a new auction).
	first := getPath(t, h, searchPath)
	if got := first.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second search X-Cache = %q, want hit", got)
	}
	z = read()
	if z.Served != 1 || z.CacheHits != 1 {
		t.Fatalf("after hit: %+v", z)
	}
}

// TestCacheHitBodyIdentical: a hit returns byte-for-byte what the
// handler rendered on the miss — the property that makes the cache
// semantically free.
func TestCacheHitBodyIdentical(t *testing.T) {
	s, gen := serverFixture(t)
	h := clusterHandler(t, s)
	phrase := gen.UniverseFor(verticals.Downloads).Keywords[0].Phrase
	path := "/search?q=" + url.QueryEscape(phrase) + "&country=US"

	miss := getPath(t, h, path)
	hit := getPath(t, h, path)
	if miss.Body.String() != hit.Body.String() {
		t.Fatalf("hit body differs from miss body:\n%s\nvs\n%s", miss.Body.String(), hit.Body.String())
	}
	if hit.Header().Get("Content-Type") != "application/json" {
		t.Fatal("hit lost Content-Type")
	}
}

// TestInstanceHeaders: every /search response names the instance that
// answered it, and carries no load report: the router reads admission
// occupancy from /statz alone.
func TestInstanceHeaders(t *testing.T) {
	s, gen := serverFixture(t)
	h := clusterHandler(t, s)
	phrase := gen.UniverseFor(verticals.Downloads).Keywords[0].Phrase
	rec := getPath(t, h, "/search?q="+url.QueryEscape(phrase)+"&country=US")
	if rec.Header().Get("X-Instance") != "i7" {
		t.Fatalf("X-Instance = %q", rec.Header().Get("X-Instance"))
	}
	for k := range rec.Header() {
		switch k {
		case "Content-Type", "X-Request-Id", "X-Instance", "X-Cache":
		default:
			t.Fatalf("unexpected /search header %s", k)
		}
	}
}

// TestResponseCacheLRU pins the eviction order and the update path.
func TestResponseCacheLRU(t *testing.T) {
	c := newResponseCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok { // touches a: b is now LRU
		t.Fatal("a missing")
	}
	c.put("c", []byte("C")) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if got, ok := c.get("a"); !ok || string(got) != "A" {
		t.Fatalf("a = %q, %v", got, ok)
	}
	c.put("a", []byte("A2")) // update in place, no eviction
	if got, _ := c.get("a"); string(got) != "A2" {
		t.Fatalf("a after update = %q", got)
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c evicted by an in-place update")
	}
	if c.hits.Load() == 0 || c.misses.Load() == 0 {
		t.Fatalf("counters: hits=%d misses=%d", c.hits.Load(), c.misses.Load())
	}
}
