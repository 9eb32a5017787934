package adserver

// Tests of the serving stack Handler returns (stack.go): request IDs,
// panic recovery, admission, the deadline, and the order of the
// /search steps.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"repro/internal/verticals"
)

// searchPathFixture is a /search path the fixture serves ads for.
func searchPathFixture(t *testing.T) (*Server, string) {
	t.Helper()
	s, gen := serverFixture(t)
	phrase := gen.UniverseFor(verticals.Downloads).Keywords[0].Phrase
	return s, "/search?q=" + url.QueryEscape(phrase) + "&country=US"
}

// TestRequestIDSequentialAndEchoed: one counter per handler that every
// route advances, a client's ID echoed, and error bodies carrying the
// ID of their response.
func TestRequestIDSequentialAndEchoed(t *testing.T) {
	s, path := searchPathFixture(t)
	h := s.Handler(Options{})
	for i, p := range []string{"/healthz", path, "/statz"} {
		want := []string{"r00000001", "r00000002", "r00000003"}[i]
		if got := getPath(t, h, p).Header().Get("X-Request-ID"); got != want {
			t.Fatalf("GET %s: X-Request-ID %q, want %q", p, got, want)
		}
	}

	rec := getPath(t, h, "/search")
	var body ErrorBody
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusBadRequest || body.RequestID != "r00000004" || rec.Header().Get("X-Request-ID") != "r00000004" {
		t.Fatalf("missing q: status %d, body ID %q, header %q", rec.Code, body.RequestID, rec.Header().Get("X-Request-ID"))
	}

	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/search", nil)
	req.Header.Set("X-Request-ID", "client-supplied")
	h.ServeHTTP(rec, req)
	body = ErrorBody{}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if rec.Header().Get("X-Request-ID") != "client-supplied" || body.RequestID != "client-supplied" {
		t.Fatalf("client-provided request ID not echoed: header %q, body %q", rec.Header().Get("X-Request-ID"), body.RequestID)
	}
	if got := getPath(t, h, "/healthz").Header().Get("X-Request-ID"); got != "r00000005" {
		t.Fatalf("an echoed ID advanced the counter: next ID %q", got)
	}
}

// TestRecoverTurnsPanicIntoStructured500: a panic is counted and
// answered with a structured 500, http.ErrAbortHandler is re-raised,
// and a request that panics after rendering is never cached.
func TestRecoverTurnsPanicIntoStructured500(t *testing.T) {
	s, path := searchPathFixture(t)
	var calls int
	h := s.Handler(Options{CacheSize: 4, Wrap: func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls++
			switch calls {
			case 1:
				panic("kaboom")
			case 2:
				next.ServeHTTP(w, r) // a full 200 body, then the panic
				panic("after render")
			case 3:
				panic(http.ErrAbortHandler)
			}
			next.ServeHTTP(w, r)
		})
	}})

	rec := getPath(t, h, path)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d", rec.Code)
	}
	var body ErrorBody
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if body.Code != "internal_panic" || body.RequestID != rec.Header().Get("X-Request-ID") || body.RequestID == "" {
		t.Fatalf("body %+v", body)
	}

	getPath(t, h, path)
	if got := s.panics.Load(); got != 2 {
		t.Fatalf("panics counter %d, want 2", got)
	}

	func() {
		defer func() {
			if v := recover(); v != http.ErrAbortHandler {
				t.Fatalf("abort: recovered %v, want http.ErrAbortHandler re-raised", v)
			}
		}()
		getPath(t, h, path)
	}()
	if got := s.panics.Load(); got != 2 {
		t.Fatalf("an abort was counted as a panic: %d", got)
	}

	if rec := getPath(t, h, path); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("after panics: status %d, X-Cache %q; want 200 miss (nothing cached)", rec.Code, rec.Header().Get("X-Cache"))
	}
}

// TestAdmissionShedsWith429AndRetryAfter: with every slot held, a
// request is shed at once with 429, Retry-After: 1 and X-Instance, the
// shed counter and the in-flight gauge on /statz move, and the
// bypassing routes still answer.
func TestAdmissionShedsWith429AndRetryAfter(t *testing.T) {
	s, path := searchPathFixture(t)
	release := make(chan struct{})
	entered := make(chan struct{}, 2)
	h := s.Handler(Options{MaxInFlight: 2, InstanceID: "i3", Wrap: func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			entered <- struct{}{}
			<-release
			next.ServeHTTP(w, r)
		})
	}})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", path, nil))
		}()
	}
	<-entered
	<-entered // both slots held

	if z := s.Statz(); z.InFlight != 2 || z.Capacity != 2 {
		t.Fatalf("gauge %d/%d, want 2/2", z.InFlight, z.Capacity)
	}

	rec := getPath(t, h, path)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want 1", got)
	}
	// Result holds the headers as written, not as set afterwards.
	if got := rec.Result().Header.Get("X-Instance"); got != "i3" {
		t.Fatalf("shed X-Instance %q, want i3", got)
	}
	var body ErrorBody
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Code != "overloaded" || body.RetryAfter != 1 || body.RequestID == "" {
		t.Fatalf("body %+v", body)
	}
	if z := s.Statz(); z.Shed != 1 {
		t.Fatalf("shed counter %d", z.Shed)
	}
	for _, p := range []string{"/healthz", "/readyz", "/stats", "/statz"} {
		if rec := getPath(t, h, p); rec.Code != http.StatusOK {
			t.Fatalf("GET %s with the gate full: %d", p, rec.Code)
		}
	}

	close(release)
	wg.Wait()

	// Slots were released: the next request is admitted and the gauge
	// returns to zero after it finishes.
	if rec := getPath(t, h, path); rec.Code != http.StatusOK {
		t.Fatalf("slot not released after handler returned: %d", rec.Code)
	}
	if z := s.Statz(); z.InFlight != 0 {
		t.Fatalf("gauge %d after all requests done, want 0", z.InFlight)
	}
}

// TestDeadlineArmsContext: the deadline is on the request Wrap sees.
func TestDeadlineArmsContext(t *testing.T) {
	s, path := searchPathFixture(t)
	var armed, called bool
	h := s.Handler(Options{RequestTimeout: 30 * time.Second, Wrap: func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			called = true
			_, armed = r.Context().Deadline()
			next.ServeHTTP(w, r)
		})
	}})
	getPath(t, h, path)
	if !called || !armed {
		t.Fatalf("Wrap called %v, deadline armed %v", called, armed)
	}
}

// TestStackOrderHitSkipsWrap pins the /search order around Wrap: a
// cache hit answers before the deadline and the wrap (the
// cache_affinity scenario's premise), and a miss runs both.
func TestStackOrderHitSkipsWrap(t *testing.T) {
	s, path := searchPathFixture(t)
	var calls int
	h := s.Handler(Options{MaxInFlight: 4, RequestTimeout: time.Minute, InstanceID: "i1", CacheSize: 4,
		Wrap: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls++
				next.ServeHTTP(w, r)
			})
		}})
	for i, want := range []string{"miss", "hit", "hit"} {
		rec := getPath(t, h, path)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != want || rec.Header().Get("X-Instance") != "i1" {
			t.Fatalf("request %d: status %d, X-Cache %q, X-Instance %q; want 200 %s i1",
				i, rec.Code, rec.Header().Get("X-Cache"), rec.Header().Get("X-Instance"), want)
		}
	}
	if calls != 1 {
		t.Fatalf("Wrap ran %d times over one miss and two hits, want 1", calls)
	}
}
