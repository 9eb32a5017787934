// Package faultinject is a seeded, deterministic chaos layer for HTTP
// serving paths. An Injector wraps route handlers and, per request,
// rolls injected latency, errors, and panics from a stream that is a
// pure function of (injector seed, route, arrival index) — the i-th
// request to a route always meets the same fate for a given seed, so a
// sequential chaos test is exactly reproducible and a concurrent one
// sees a fixed multiset of fates regardless of goroutine interleaving.
//
// The adserver mounts an Injector through Options.Wrap in test builds;
// the chaos suite in internal/adserver uses it to prove the resilience
// stack's guarantees (shed = 429 not timeout, panics never kill the
// process, shutdown drains in-flight requests).
package faultinject

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Faults configures what the injector may do to one route's requests.
// Rolls are drawn in a fixed order — latency jitter, then panic, then
// error — so adding a later fault class never perturbs earlier ones.
type Faults struct {
	// Latency is added to every request before the handler runs; the
	// sleep respects the request context, so a deadline can cut it
	// short (the request then times out downstream, as in production).
	Latency time.Duration
	// LatencyJitter adds a uniform [0, J) draw on top of Latency.
	LatencyJitter time.Duration
	// PanicRate is the probability the wrapped handler panics instead
	// of running.
	PanicRate float64
	// ErrorRate is the probability the injector replies with ErrorStatus
	// instead of running the handler.
	ErrorRate float64
	// ErrorStatus defaults to 500.
	ErrorStatus int
}

// routeState carries one route's config plus its arrival counter and
// fate tallies.
type routeState struct {
	cfg     Faults
	arrived atomic.Uint64
	errors  atomic.Uint64
	panics  atomic.Uint64
	delayed atomic.Uint64
}

// Injector derives per-request fault decisions from a fixed seed.
// Configure routes before serving; Wrap and the returned handlers are
// safe for concurrent use.
type Injector struct {
	seed uint64

	mu       sync.Mutex
	routes   map[string]*routeState
	writers  map[string]*writerState
	backends map[string]*backendState
}

// New returns an injector whose every decision derives from seed.
func New(seed uint64) *Injector {
	return &Injector{
		seed:     seed,
		routes:   make(map[string]*routeState),
		writers:  make(map[string]*writerState),
		backends: make(map[string]*backendState),
	}
}

// Route sets the fault profile for a route and returns the injector for
// chaining. Routes without a profile pass through untouched.
func (in *Injector) Route(route string, f Faults) *Injector {
	if f.ErrorStatus == 0 {
		f.ErrorStatus = http.StatusInternalServerError
	}
	in.mu.Lock()
	in.routes[route] = &routeState{cfg: f}
	in.mu.Unlock()
	return in
}

// fnv64 hashes a route name into the decision stream seed.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Wrap returns h wrapped with the route's fault profile, or h unchanged
// when the route has none. Its signature matches adserver
// Options.Wrap.
func (in *Injector) Wrap(route string, h http.Handler) http.Handler {
	in.mu.Lock()
	st := in.routes[route]
	in.mu.Unlock()
	if st == nil {
		return h
	}
	routeHash := fnv64(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := st.arrived.Add(1)
		// splitmix-style spread of the arrival index keeps consecutive
		// requests' streams uncorrelated.
		rng := stats.NewRNG(in.seed ^ routeHash ^ (n * 0x9e3779b97f4a7c15))

		f := st.cfg
		if d := f.Latency + jitter(f.LatencyJitter, rng); d > 0 {
			st.delayed.Add(1)
			sleepCtx(r.Context(), d)
		}
		if f.PanicRate > 0 && rng.Float64() < f.PanicRate {
			st.panics.Add(1)
			panic(fmt.Sprintf("faultinject: injected panic (route=%s n=%d seed=%d)", route, n, in.seed))
		}
		if f.ErrorRate > 0 && rng.Float64() < f.ErrorRate {
			st.errors.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(f.ErrorStatus)
			_ = json.NewEncoder(w).Encode(map[string]string{
				"error": "injected fault",
				"code":  "fault_injected",
			})
			return
		}
		h.ServeHTTP(w, r)
	})
}

// jitter draws a uniform [0, j) duration; zero j draws nothing (and
// consumes no randomness, keeping later rolls stable).
func jitter(j time.Duration, rng *stats.RNG) time.Duration {
	if j <= 0 {
		return 0
	}
	return time.Duration(rng.Float64() * float64(j))
}

// sleepCtx sleeps d or until ctx ends, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// ErrInjectedWrite is the default failure WriteFaults injects.
var ErrInjectedWrite = errors.New("faultinject: injected write failure")

// ErrInjectedCrash marks the point where a crash profile killed the
// writer: the write it is returned from persisted only a torn prefix,
// and every write after it persisted nothing.
var ErrInjectedCrash = errors.New("faultinject: injected crash")

// WriteFaults configures an injected write-failure profile for an
// io.Writer — the fault class event-recording sinks meet in production
// (full disks, torn pipes, unreachable log shippers).
type WriteFaults struct {
	// ErrorRate is the probability a Write call fails outright.
	ErrorRate float64
	// Err is the error returned on injected failures; defaults to
	// ErrInjectedWrite.
	Err error
	// KillAfterWrites, when > 0, simulates the process dying mid-write:
	// the first KillAfterWrites calls pass through untouched, call
	// KillAfterWrites+1 persists only a seeded strict prefix of its
	// buffer (what "hit the disk" before death) and returns
	// ErrInjectedCrash, and every later call fails the same way without
	// writing. The prefix length is a pure function of (injector seed,
	// writer name, kill point), so each crash point is reproducible.
	KillAfterWrites int
}

// writerState carries one named writer's profile and counters.
type writerState struct {
	cfg    WriteFaults
	writes atomic.Uint64
	failed atomic.Uint64
}

// Writer wraps w with a seeded write-failure profile. Like Wrap, the
// i-th Write's fate is a pure function of (injector seed, name, i), so
// a failing-sink chaos test is exactly reproducible. The returned
// writer is safe for concurrent use iff w is.
func (in *Injector) Writer(name string, w io.Writer, f WriteFaults) io.Writer {
	if f.Err == nil {
		f.Err = ErrInjectedWrite
	}
	st := &writerState{cfg: f}
	in.mu.Lock()
	in.writers[name] = st
	in.mu.Unlock()
	return &faultyWriter{in: in, st: st, nameHash: fnv64(name), w: w}
}

type faultyWriter struct {
	in       *Injector
	st       *writerState
	nameHash uint64
	w        io.Writer
}

func (fw *faultyWriter) Write(p []byte) (int, error) {
	n := fw.st.writes.Add(1)
	f := fw.st.cfg
	if f.KillAfterWrites > 0 && n > uint64(f.KillAfterWrites) {
		fw.st.failed.Add(1)
		if n == uint64(f.KillAfterWrites)+1 && len(p) > 0 {
			// The fatal write: a seeded strict prefix makes it through,
			// tearing whatever record it carried.
			rng := stats.NewRNG(fw.in.seed ^ fw.nameHash ^ (n * 0x9e3779b97f4a7c15))
			fw.w.Write(p[:int(rng.Float64()*float64(len(p)))])
		}
		return 0, ErrInjectedCrash
	}
	if f.ErrorRate > 0 {
		rng := stats.NewRNG(fw.in.seed ^ fw.nameHash ^ (n * 0x9e3779b97f4a7c15))
		if rng.Float64() < f.ErrorRate {
			fw.st.failed.Add(1)
			return 0, f.Err
		}
	}
	return fw.w.Write(p)
}

// WriterStats reports one named writer's call and failure counters.
type WriterStats struct {
	Writes uint64
	Failed uint64
}

// WriterStats returns the counters for a named writer (zero-valued for
// unknown names).
func (in *Injector) WriterStats(name string) WriterStats {
	in.mu.Lock()
	st := in.writers[name]
	in.mu.Unlock()
	if st == nil {
		return WriterStats{}
	}
	return WriterStats{Writes: st.writes.Load(), Failed: st.failed.Load()}
}

// RouteStats reports one route's arrival and fate counters.
type RouteStats struct {
	Requests       uint64
	InjectedErrors uint64
	InjectedPanics uint64
	Delayed        uint64
}

// Stats returns the counters for a route (zero-valued for unknown
// routes).
func (in *Injector) Stats(route string) RouteStats {
	in.mu.Lock()
	st := in.routes[route]
	in.mu.Unlock()
	if st == nil {
		return RouteStats{}
	}
	return RouteStats{
		Requests:       st.arrived.Load(),
		InjectedErrors: st.errors.Load(),
		InjectedPanics: st.panics.Load(),
		Delayed:        st.delayed.Load(),
	}
}
