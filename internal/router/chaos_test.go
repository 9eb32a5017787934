package router

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// virtualTime puts rt on a clock that starts at 2000-01-01 and moves
// only when the returned advance is called. advance moves it by d and
// then runs one health tick, as the health loop would at that time, so
// a test decides exactly when every probe may happen.
func virtualTime(rt *Router) (advance func(d time.Duration)) {
	var clock atomic.Int64
	clock.Store(time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	rt.now = func() time.Time { return time.Unix(0, clock.Load()) }
	h := &healthLoop{rt: rt}
	return func(d time.Duration) {
		clock.Add(int64(d))
		h.tick(context.Background())
	}
}

// maxRounds bounds the request-and-tick rounds a chaos test waits for
// recovery: 25 s of virtual time, over ten times the backoff cap.
const maxRounds = 100

// fakeAdserver mimics the adserver surface the router depends on:
// /search answers 200, /readyz and /statz always serve (probe routes
// stay up even while /search faults — exactly how the fault layer is
// mounted in adbench scenarios). The /search handler is wrapped with
// the given middleware when non-nil.
func fakeAdserver(t *testing.T, mw func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	search := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"ads":[]}`)
	}))
	if mw != nil {
		search = mw(search)
	}
	mux := http.NewServeMux()
	mux.Handle("/search", search)
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("/statz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"inflight":0,"capacity":64}`)
	})
	s := httptest.NewServer(mux)
	t.Cleanup(s.Close)
	return s
}

// TestChaosRouterMasksBackendOutage is the PR's headline chaos
// property: with a fault profile failing one member's /search for a
// window of requests, every client request still answers 200 (the
// router retries elsewhere), the faulty member is ejected by the
// consecutive-error threshold, and once the outage window passes the
// seeded-backoff health loop re-admits it and it serves again. Time is
// virtual: each round of phases 2 and 3 sends one request and then
// moves the clock one probe interval.
func TestChaosRouterMasksBackendOutage(t *testing.T) {
	inj := faultinject.New(99)
	// Member 0 fails its first 12 /search arrivals with 503s.
	mw := inj.HTTP("i0", faultinject.Faults{FailFrom: 1, FailUntil: 13})
	bad := fakeAdserver(t, mw)
	good := fakeAdserver(t, nil)

	rt, err := New(Options{Seed: 42}, bad.URL, good.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	advance := virtualTime(rt)

	faulty := rt.Backends()[0]

	// Phase 1: drive traffic through the outage. Every request must
	// succeed — single-member 5xx is the router's to absorb.
	for i := 0; i < 30; i++ {
		resp := doGet(t, rt, "/search?q=x")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d leaked status %d through the router", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if faulty.ejections.Load() == 0 {
		t.Fatal("faulty member was never ejected")
	}

	// Phase 2: keep driving traffic until the member's outage window is
	// fully consumed. Readyz probes always pass, so the first post-eject
	// probe re-admits; a member re-admitted mid-outage errors again and
	// re-ejects — the seeded backoff bounds the flapping, and every
	// client request must still come back 200 throughout. The fault
	// layer's own arrival counter tells us when the window is spent:
	// arrival 13 is the first one past FailUntil, and it succeeds.
	for round := 0; inj.Stats("i0").Requests < 13; round++ {
		if round == maxRounds {
			t.Fatalf("outage never drained (arrivals=%d, state=%v, ejections=%d, readmits=%d)",
				inj.Stats("i0").Requests, faulty.State(),
				faulty.ejections.Load(), faulty.readmits.Load())
		}
		resp := doGet(t, rt, "/search?q=x")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mid-recovery request leaked status %d", resp.StatusCode)
		}
		resp.Body.Close()
		advance(probeInterval)
	}
	if faulty.readmits.Load() == 0 {
		t.Fatal("member recovered without a readmit count")
	}
	if faulty.served.Load() == 0 {
		t.Fatal("recovered member never served past the outage")
	}

	// Phase 3: the member settles active and serves real traffic again.
	for round := 0; faulty.State() != Active; round++ {
		if round == maxRounds {
			t.Fatalf("member never settled active (state=%v)", faulty.State())
		}
		advance(probeInterval)
	}
	servedBefore := faulty.served.Load()
	for i := 0; i < 20 && faulty.served.Load() == servedBefore; i++ {
		resp := doGet(t, rt, "/search?q=x")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-recovery status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if faulty.served.Load() == servedBefore {
		t.Fatal("recovered member never served again")
	}

	s := rt.Stats()
	if s.Masked == 0 {
		t.Fatal("no failures were masked — outage never exercised the retry path")
	}
	if s.NoBackend != 0 || s.Sheds != 0 {
		t.Fatalf("client-visible failures: no_backend=%d sheds=%d, want 0/0", s.NoBackend, s.Sheds)
	}
}

// TestChaosRouterMasksConnectionDrops runs the same masking property
// against severed connections (the fault layer panics with
// http.ErrAbortHandler, which the client sees as a transport error)
// instead of clean 503s, with a health tick one virtual probe interval
// after each request.
func TestChaosRouterMasksConnectionDrops(t *testing.T) {
	inj := faultinject.New(7)
	mw := inj.HTTP("i0", faultinject.Faults{FailFrom: 1, FailUntil: 9, DropOutage: true})
	bad := fakeAdserver(t, mw)
	good := fakeAdserver(t, nil)

	rt, err := New(Options{Seed: 43}, bad.URL, good.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	advance := virtualTime(rt)

	for i := 0; i < 20; i++ {
		resp := doGet(t, rt, "/search?q=x")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d leaked status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
		advance(probeInterval)
	}
	faulty := rt.Backends()[0]
	if faulty.ejections.Load() == 0 {
		t.Fatal("dropping member was never ejected")
	}
	if got := inj.Stats("i0").DroppedConns; got == 0 {
		t.Fatalf("fault layer recorded no drops (got %d)", got)
	}
}
