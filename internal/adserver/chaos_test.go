package adserver

// Chaos suite: drives the resilience stack with seeded fault injection
// (internal/faultinject) and proves the guarantees the stack exists
// for — overload sheds fast 429s instead of queueing into timeouts,
// panics become structured 500s and never kill the process, shutdown
// drains in-flight requests within the grace period. Run it alone via
// `make chaos`; `make verify` includes it under -race.

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/verticals"
)

// noRetryGet issues one plain GET (no client retry policy) and returns
// status code, decoded error body (when non-200), and elapsed time.
func noRetryGet(t *testing.T, url string) (int, ErrorBody, time.Duration) {
	t.Helper()
	start := time.Now()
	resp, err := http.Get(url)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var body ErrorBody
	if resp.StatusCode != http.StatusOK {
		_ = json.NewDecoder(resp.Body).Decode(&body)
	}
	return resp.StatusCode, body, elapsed
}

func TestChaosShedReturns429NotTimeout(t *testing.T) {
	s, gen := serverFixture(t)
	wrap := faultinject.New(1).HTTP("/search", faultinject.Faults{Latency: 600 * time.Millisecond})
	ts := httptest.NewServer(s.Handler(Options{
		MaxInFlight:    2,
		RequestTimeout: 5 * time.Second,
		Wrap:           wrap,
	}))
	defer ts.Close()
	phrase := gen.UniverseFor(verticals.Downloads).Keywords[0].Phrase

	const n = 10
	type outcome struct {
		code    int
		body    ErrorBody
		elapsed time.Duration
	}
	outcomes := make([]outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body, elapsed := noRetryGet(t, ts.URL+"/search?q="+url.QueryEscape(phrase))
			outcomes[i] = outcome{code, body, elapsed}
		}(i)
	}
	wg.Wait()

	var ok200, shed429 int
	for _, o := range outcomes {
		switch o.code {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			shed429++
			if o.body.Code != "overloaded" || o.body.RetryAfter < 1 {
				t.Errorf("shed body %+v", o.body)
			}
			// The point of shedding: rejection is immediate, not a
			// queued wait behind the injected latency.
			if o.elapsed > 500*time.Millisecond {
				t.Errorf("shed response took %s — it queued instead of shedding", o.elapsed)
			}
		default:
			t.Errorf("unexpected status %d (%+v)", o.code, o.body)
		}
	}
	if ok200 == 0 || shed429 == 0 {
		t.Fatalf("want a mix of served and shed: 200s=%d 429s=%d", ok200, shed429)
	}
	st := fetchStats(t, ts.URL)
	if st.Shed != int64(shed429) {
		t.Errorf("server shed counter %d, observed %d", st.Shed, shed429)
	}
}

func TestChaosPanicsNeverKillProcess(t *testing.T) {
	s, gen := serverFixture(t)
	inj := faultinject.New(1)
	wrap := inj.HTTP("/search", faultinject.Faults{PanicRate: 1})
	ts := httptest.NewServer(s.Handler(Options{MaxInFlight: 8, RequestTimeout: 2 * time.Second, Wrap: wrap}))
	defer ts.Close()
	phrase := gen.UniverseFor(verticals.Downloads).Keywords[0].Phrase

	const n = 20
	for i := 0; i < n; i++ {
		code, body, _ := noRetryGet(t, ts.URL+"/search?q="+url.QueryEscape(phrase))
		if code != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500", i, code)
		}
		if body.Code != "internal_panic" || body.RequestID == "" {
			t.Fatalf("request %d: body %+v", i, body)
		}
	}
	// The process (and server) survived: health and stats still answer.
	if code, _, _ := noRetryGet(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after panics: %d", code)
	}
	st := fetchStats(t, ts.URL)
	if st.Panics != n {
		t.Errorf("panic counter %d, want %d", st.Panics, n)
	}
	if got := inj.Stats("/search").InjectedPanics; got != n {
		t.Errorf("injector panic counter %d, want %d", got, n)
	}
}

func TestChaosDeadlineReturns504(t *testing.T) {
	s, gen := serverFixture(t)
	wrap := faultinject.New(1).HTTP("/search", faultinject.Faults{Latency: 10 * time.Second})
	ts := httptest.NewServer(s.Handler(Options{MaxInFlight: 8, RequestTimeout: 50 * time.Millisecond, Wrap: wrap}))
	defer ts.Close()
	phrase := gen.UniverseFor(verticals.Downloads).Keywords[0].Phrase

	code, body, elapsed := noRetryGet(t, ts.URL+"/search?q="+url.QueryEscape(phrase))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
	if body.Code != "deadline_exceeded" {
		t.Fatalf("body %+v", body)
	}
	// The injected 10s sleep was cut short by the 50ms deadline.
	if elapsed > 5*time.Second {
		t.Fatalf("deadline did not cut injected latency short (%s)", elapsed)
	}
	st := fetchStats(t, ts.URL)
	if st.Timeouts == 0 {
		t.Error("timeout counter not incremented")
	}
}

func TestChaosShutdownDrainsInFlight(t *testing.T) {
	s, gen := serverFixture(t)
	wrap := faultinject.New(1).HTTP("/search", faultinject.Faults{Latency: 400 * time.Millisecond})
	gate := NewGate()
	gate.Install(s.Handler(Options{MaxInFlight: 8, RequestTimeout: 5 * time.Second, Wrap: wrap}))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: gate}
	stop := make(chan os.Signal, 1)
	serveDone := make(chan error, 1)
	go func() { serveDone <- Serve(hs, ln, gate, 3*time.Second, stop, t.Logf) }()

	base := "http://" + ln.Addr().String()
	phrase := gen.UniverseFor(verticals.Downloads).Keywords[0].Phrase

	// Launch a slow in-flight request, then trigger shutdown while it
	// is still sleeping inside the injected latency.
	slowDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/search?q=" + url.QueryEscape(phrase))
		if err != nil {
			slowDone <- -1
			return
		}
		resp.Body.Close()
		slowDone <- resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond) // let the slow request enter the handler
	stop <- syscall.SIGTERM

	if code := <-slowDone; code != http.StatusOK {
		t.Fatalf("in-flight request not drained: status %d", code)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return within the grace period")
	}
	rec := httptest.NewRecorder()
	gate.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after drain = %d, want 503", rec.Code)
	}
	// New connections are refused after shutdown.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still accepting connections after drain")
	}
}

func TestChaosSequenceDeterministic(t *testing.T) {
	// The same seeds must reproduce the exact status-code sequence:
	// fault decisions are a pure function of (seed, name, arrival
	// index), and sequential arrival fixes the index order.
	run := func() []int {
		s, gen := serverFixture(t)
		wrap := faultinject.New(1234).HTTP("/search", faultinject.Faults{ErrorRate: 0.4})
		ts := httptest.NewServer(s.Handler(Options{MaxInFlight: 4, RequestTimeout: 2 * time.Second, Wrap: wrap}))
		defer ts.Close()
		phrase := gen.UniverseFor(verticals.Downloads).Keywords[0].Phrase
		codes := make([]int, 60)
		for i := range codes {
			codes[i], _, _ = noRetryGet(t, ts.URL+"/search?q="+url.QueryEscape(phrase))
		}
		return codes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chaos sequence diverged at request %d: %d vs %d", i, a[i], b[i])
		}
	}
}
