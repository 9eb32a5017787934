package adserver

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestChainOrderOutermostFirst(t *testing.T) {
	var order []string
	mw := func(name string) Middleware {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				order = append(order, name)
				next.ServeHTTP(w, r)
			})
		}
	}
	h := Chain(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		order = append(order, "handler")
	}), mw("a"), mw("b"))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "handler" {
		t.Fatalf("order %v", order)
	}
}

func TestRequestIDSequentialAndEchoed(t *testing.T) {
	var seen []string
	h := RequestID()(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = append(seen, RequestIDFromContext(r.Context()))
	}))
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		if got := rec.Header().Get("X-Request-ID"); got != seen[i] {
			t.Fatalf("header %q != context %q", got, seen[i])
		}
	}
	if seen[0] != "r00000001" || seen[1] != "r00000002" {
		t.Fatalf("sequential IDs: %v", seen)
	}

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("X-Request-ID", "client-supplied")
	h.ServeHTTP(rec, req)
	if rec.Header().Get("X-Request-ID") != "client-supplied" {
		t.Fatal("client-provided request ID not echoed")
	}
}

func TestRecoverTurnsPanicIntoStructured500(t *testing.T) {
	var recovered interface{}
	h := Chain(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}), RequestID(), Recover(func(v interface{}) { recovered = v }))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d", rec.Code)
	}
	if recovered != "kaboom" {
		t.Fatalf("onPanic saw %v", recovered)
	}
	var body ErrorBody
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if body.Code != "internal_panic" || body.RequestID == "" {
		t.Fatalf("body %+v", body)
	}
}

func TestAdmissionShedsWith429AndRetryAfter(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 2)
	var sheds int
	var mu sync.Mutex
	gauge := &InFlightGauge{}
	h := Admission(2, 1500*time.Millisecond, func() { mu.Lock(); sheds++; mu.Unlock() }, gauge)(
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			entered <- struct{}{}
			<-release
		}))

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
		}()
	}
	<-entered
	<-entered // both slots held

	if gauge.Load() != 2 || gauge.Capacity() != 2 {
		t.Fatalf("gauge %d/%d, want 2/2", gauge.Load(), gauge.Capacity())
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "2" {
		t.Fatalf("Retry-After %q, want 2 (1.5s rounded up)", rec.Header().Get("Retry-After"))
	}
	var body ErrorBody
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Code != "overloaded" || body.RetryAfter != 2 {
		t.Fatalf("body %+v", body)
	}
	mu.Lock()
	if sheds != 1 {
		t.Fatalf("sheds %d", sheds)
	}
	mu.Unlock()

	close(release)
	wg.Wait()

	// Slots were released: the next request is admitted and the gauge
	// returns to zero after it finishes.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code == http.StatusTooManyRequests {
		t.Fatal("slot not released after handler returned")
	}
	if gauge.Load() != 0 {
		t.Fatalf("gauge %d after all requests done, want 0", gauge.Load())
	}
}

func TestDeadlineArmsContext(t *testing.T) {
	h := Deadline(30 * time.Millisecond)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := r.Context().Deadline(); !ok {
			t.Error("no deadline on request context")
		}
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
}

func TestGateLifecycle(t *testing.T) {
	g := NewGate()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	// Bootstrapping: alive but not ready; other routes shed with 503.
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz while starting: %d", rec.Code)
	}
	if rec := get("/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while starting: %d", rec.Code)
	}
	rec := get("/search?q=x")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("search while starting: %d", rec.Code)
	}
	var body ErrorBody
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil || body.Code != "starting" {
		t.Fatalf("search-while-starting body %+v err %v", body, err)
	}

	// Installed: ready, inner handler serves.
	g.Install(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	if rec := get("/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz after install: %d", rec.Code)
	}
	if rec := get("/anything"); rec.Code != http.StatusTeapot {
		t.Fatalf("inner handler not reached: %d", rec.Code)
	}

	// Draining: readyz flips off, inner still serves in-flight traffic.
	g.StartDraining()
	if rec := get("/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", rec.Code)
	}
	if rec := get("/anything"); rec.Code != http.StatusTeapot {
		t.Fatalf("draining should still serve open traffic: %d", rec.Code)
	}
}
