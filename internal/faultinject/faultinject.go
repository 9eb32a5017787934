// Package faultinject is a seeded, deterministic chaos layer for HTTP
// serving paths, event-log writers, checkpoints and supervised worker
// processes. On the HTTP side one fault profile, Faults, is mounted by
// name: on an adserver's /search (adserver Options.Wrap) for the
// adserver chaos suite, and on each cluster member for the router chaos
// suite and loadgen scenarios. Per request it rolls injected latency, an
// outage window, panics, dropped connections and error replies from a
// stream that is a pure function of (injector seed, name, arrival
// index) — the i-th request under a name always meets the same fate for
// a given seed, so a sequential chaos test is exactly reproducible and
// a concurrent one sees a fixed multiset of fates regardless of
// goroutine interleaving.
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

// Faults configures how one named HTTP handler misbehaves. Rolls are
// drawn in a fixed order — panic, drop, error — and a class draws only
// when it is configured, so adding a later fault class never perturbs
// earlier ones. An injected error reply, from the outage window or
// ErrorRate, is a 503: the shape of a member whose own dependency is
// down, and the status the router retries elsewhere.
type Faults struct {
	// Latency is added to every request before the handler runs; the
	// sleep respects the request context, so a deadline can cut it
	// short (the request then times out downstream, as in production).
	Latency time.Duration
	// FailFrom/FailUntil define a deterministic outage window by arrival
	// index (1-based, inclusive/exclusive): requests n with
	// FailFrom <= n < FailUntil all fail — with a 503, or by
	// connection drop when DropOutage is set. The window is the router's
	// ejection trigger: enough consecutive failures eject the member,
	// and once arrivals pass FailUntil, re-admission probes find it
	// healthy again. Zero FailFrom disables the window.
	FailFrom, FailUntil uint64
	// DropOutage makes the outage window sever connections instead of
	// replying 503.
	DropOutage bool
	// PanicRate is the probability the wrapped handler panics instead
	// of running.
	PanicRate float64
	// DropRate is the probability a request's connection is severed
	// without a response (aborts via http.ErrAbortHandler), which a
	// router observes as a transport error.
	DropRate float64
	// ErrorRate is the probability the injector replies 503 instead of
	// running the handler.
	ErrorRate float64
}

// httpState carries one name's profile plus its arrival counter and
// fate tallies.
type httpState struct {
	cfg     Faults
	arrived atomic.Uint64
	errors  atomic.Uint64
	panics  atomic.Uint64
	drops   atomic.Uint64
	delayed atomic.Uint64
}

// Injector derives per-request fault decisions from a fixed seed.
// Profiles, writers and the middleware it returns are safe for
// concurrent use.
type Injector struct {
	seed uint64

	mu       sync.Mutex
	handlers map[string]*httpState
	writers  map[string]*writerState
}

// New returns an injector whose every decision derives from seed.
func New(seed uint64) *Injector {
	return &Injector{
		seed:     seed,
		handlers: make(map[string]*httpState),
		writers:  make(map[string]*writerState),
	}
}

// HTTP returns a handler wrapper applying the fault profile f under
// name; it fits adserver Options.Wrap. Registering the same name again
// resets its counters.
func (in *Injector) HTTP(name string, f Faults) func(http.Handler) http.Handler {
	st := &httpState{cfg: f}
	in.mu.Lock()
	in.handlers[name] = st
	in.mu.Unlock()
	nameHash := stats.FNV1a(stats.FNVOffset, name)
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n := st.arrived.Add(1)
			// splitmix-style spread of the arrival index keeps consecutive
			// requests' streams uncorrelated.
			rng := stats.NewRNG(in.seed ^ nameHash ^ (n * 0x9e3779b97f4a7c15))

			f := &st.cfg
			if f.Latency > 0 {
				st.delayed.Add(1)
				sleepCtx(r.Context(), f.Latency)
			}
			if f.FailFrom > 0 && n >= f.FailFrom && n < f.FailUntil {
				if f.DropOutage {
					st.drops.Add(1)
					panic(http.ErrAbortHandler)
				}
				st.errors.Add(1)
				writeInjected(w, name, n)
				return
			}
			if f.PanicRate > 0 && rng.Float64() < f.PanicRate {
				st.panics.Add(1)
				panic(fmt.Sprintf("faultinject: injected panic (name=%s n=%d seed=%d)", name, n, in.seed))
			}
			if f.DropRate > 0 && rng.Float64() < f.DropRate {
				st.drops.Add(1)
				panic(http.ErrAbortHandler)
			}
			if f.ErrorRate > 0 && rng.Float64() < f.ErrorRate {
				st.errors.Add(1)
				writeInjected(w, name, n)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
}

// writeInjected emits the injected error reply.
func writeInjected(w http.ResponseWriter, name string, n uint64) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	_ = json.NewEncoder(w).Encode(map[string]string{
		"error": fmt.Sprintf("injected fault (name=%s n=%d)", name, n),
		"code":  "fault_injected",
	})
}

// Stats reports one name's arrival and fate counters.
type Stats struct {
	Requests       uint64
	Delayed        uint64
	InjectedErrors uint64
	InjectedPanics uint64
	DroppedConns   uint64
}

// Stats returns the counters for a name (zero-valued for unknown
// names).
func (in *Injector) Stats(name string) Stats {
	in.mu.Lock()
	st := in.handlers[name]
	in.mu.Unlock()
	if st == nil {
		return Stats{}
	}
	return Stats{
		Requests:       st.arrived.Load(),
		Delayed:        st.delayed.Load(),
		InjectedErrors: st.errors.Load(),
		InjectedPanics: st.panics.Load(),
		DroppedConns:   st.drops.Load(),
	}
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

// ErrInjectedWrite is the failure WriteFaults.ErrorRate injects.
var ErrInjectedWrite = errors.New("faultinject: injected write failure")

// ErrInjectedCrash marks the point where a crash profile killed the
// writer: the write it is returned from persisted only a torn prefix,
// and every write after it persisted nothing.
var ErrInjectedCrash = errors.New("faultinject: injected crash")

// WriteFaults configures an injected write-failure profile for an
// io.Writer — the fault class event-recording sinks meet in production
// (full disks, torn pipes, unreachable log shippers).
type WriteFaults struct {
	// ErrorRate is the probability a Write call fails outright, with
	// ErrInjectedWrite.
	ErrorRate float64
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

// Writer wraps w with a seeded write-failure profile. Like HTTP, the
// i-th Write's fate is a pure function of (injector seed, name, i), so
// a failing-sink chaos test is exactly reproducible. The returned
// writer is safe for concurrent use iff w is.
func (in *Injector) Writer(name string, w io.Writer, f WriteFaults) io.Writer {
	st := &writerState{cfg: f}
	in.mu.Lock()
	in.writers[name] = st
	in.mu.Unlock()
	return &faultyWriter{in: in, st: st, nameHash: stats.FNV1a(stats.FNVOffset, name), w: w}
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
			return 0, ErrInjectedWrite
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
