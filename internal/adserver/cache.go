package adserver

// Per-instance response cache for /search. Click rolls are a pure
// function of (server seed, query, country) — identical requests
// produce byte-identical responses — so caching a rendered response is
// semantically free: a hit returns exactly what the handler would have
// recomputed. The cache exists for the cluster router's affinity
// policy: pinning a keyword to one instance turns N small caches into
// one large effective cache, and the bench suite measures that as a
// p99/hit-rate win over round-robin.
//
// Cached hits skip the handler entirely, so they do not re-record
// impression events or advance the served counter — a hit is a replay,
// not a new auction. The hit/miss split is visible in /statz.

import (
	"container/list"
	"net/http"
	"sync"
	"sync/atomic"
)

// responseCache is a bounded LRU keyed by the request's raw query
// string, storing the rendered JSON body of 200 responses. Safe for
// concurrent use.
type responseCache struct {
	mu     sync.Mutex
	cap    int
	lru    *list.List // front = most recent; values are *cacheEntry
	byKey  map[string]*list.Element
	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key  string
	body []byte
}

func newResponseCache(capacity int) *responseCache {
	return &responseCache{
		cap:   capacity,
		lru:   list.New(),
		byKey: make(map[string]*list.Element, capacity),
	}
}

func (c *responseCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).body, true
}

func (c *responseCache) put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return
	}
	c.byKey[key] = c.lru.PushFront(&cacheEntry{key: key, body: body})
	for c.lru.Len() > c.cap {
		el := c.lru.Back()
		c.lru.Remove(el)
		delete(c.byKey, el.Value.(*cacheEntry).key)
	}
}

// captureWriter tees a 200 response body for insertion into the cache.
type captureWriter struct {
	http.ResponseWriter
	status int
	buf    []byte
}

func (cw *captureWriter) WriteHeader(status int) {
	cw.status = status
	cw.ResponseWriter.WriteHeader(status)
}

func (cw *captureWriter) Write(p []byte) (int, error) {
	if cw.status == 0 {
		cw.status = http.StatusOK
	}
	if cw.status == http.StatusOK {
		cw.buf = append(cw.buf, p...)
	}
	return cw.ResponseWriter.Write(p)
}
