package router

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/backoff"
	"repro/internal/stats"
)

// okBackend serves 200 with a recognizable body on every route.
func okBackend(t *testing.T, body string) *httptest.Server {
	t.Helper()
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, body)
	}))
	t.Cleanup(s.Close)
	return s
}

// statusBackend always answers the given status.
func statusBackend(t *testing.T, status int, hdr map[string]string) *httptest.Server {
	t.Helper()
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for k, v := range hdr {
			w.Header().Set(k, v)
		}
		w.WriteHeader(status)
	}))
	t.Cleanup(s.Close)
	return s
}

// deadAddr returns a loopback URL with nothing listening on it.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return "http://" + addr
}

func doGet(t *testing.T, rt *Router, path string) *http.Response {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	return rec.Result()
}

// TestRetryMasksConnectionError pins the core masking contract: a dead
// member costs a retry, never a client-visible error.
func TestRetryMasksConnectionError(t *testing.T) {
	ok := okBackend(t, "alive")
	rt, err := New(Options{Seed: 1}, deadAddr(t), ok.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp := doGet(t, rt, "/search?q=x")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "alive" {
		t.Fatalf("body = %q", body)
	}
	s := rt.Stats()
	if s.Masked != 1 || s.Retried != 1 {
		t.Fatalf("masked=%d retried=%d, want 1/1", s.Masked, s.Retried)
	}
	if s.Backends[0].Errors != 1 {
		t.Fatalf("dead backend errors = %d, want 1", s.Backends[0].Errors)
	}
}

// TestRetryMasks5xx: a 500-class answer is retried on another member and
// the failing response is discarded.
func TestRetryMasks5xx(t *testing.T) {
	bad := statusBackend(t, http.StatusInternalServerError, nil)
	ok := okBackend(t, "good")
	rt, err := New(Options{Seed: 1}, bad.URL, ok.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp := doGet(t, rt, "/search?q=x")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Backend"); got != rt.Backends()[1].Name {
		t.Fatalf("X-Backend = %q, want healthy member", got)
	}
}

// TestEjectAfterConsecutiveErrors pins the ejection threshold, three
// consecutive errors, and that an ejected member stops receiving
// traffic.
func TestEjectAfterConsecutiveErrors(t *testing.T) {
	bad := statusBackend(t, http.StatusBadGateway, nil)
	ok := okBackend(t, "good")
	rt, err := New(Options{Seed: 7}, bad.URL, ok.URL)
	if err != nil {
		t.Fatal(err)
	}
	b := rt.Backends()[0]
	for i := 0; b.errors.Load() < 3; i++ {
		if i == 20 {
			t.Fatalf("bad backend saw %d errors in 20 requests", b.errors.Load())
		}
		if b.errors.Load() == 2 && b.State() != Active {
			t.Fatalf("bad backend state = %v after 2 errors, want active", b.State())
		}
		if resp := doGet(t, rt, "/search?q=x"); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	if b.State() != Ejected {
		t.Fatalf("bad backend state = %v after 3 errors, want ejected", b.State())
	}
	if b.ejections.Load() != 1 {
		t.Fatalf("ejections = %d, want 1", b.ejections.Load())
	}
	// Ejected member is out of every candidate set.
	served := b.served.Load()
	for i := 0; i < 3; i++ {
		doGet(t, rt, "/search?q=x")
	}
	if b.served.Load() != served {
		t.Fatal("ejected backend still served traffic")
	}
}

// TestShedMemberStaysEligible: a 429 is masked by another member, is
// not counted as an error, and leaves the member that shed in rotation,
// so it receives the next request round-robin picks it for.
func TestShedMemberStaysEligible(t *testing.T) {
	var calls atomic.Int64
	shedOnce := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, "recovered")
	}))
	t.Cleanup(shedOnce.Close)
	ok := okBackend(t, "good")
	rt, err := New(Options{Seed: 1}, shedOnce.URL, ok.URL)
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin sends the first request to the shedding member; the
	// retry lands on the healthy one.
	if resp := doGet(t, rt, "/search?q=x"); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 after the retry", resp.StatusCode)
	}
	b := rt.Backends()[0]
	if b.errors.Load() != 0 {
		t.Fatalf("shed counted as error: %d", b.errors.Load())
	}
	if s := rt.Stats(); s.Masked != 1 || s.Sheds != 0 {
		t.Fatalf("masked=%d sheds=%d, want 1/0", s.Masked, s.Sheds)
	}
	if got := rt.eligible(nil, nil); len(got) != 2 {
		t.Fatalf("after a masked 429, eligible = %d members, want 2", len(got))
	}
	// Round-robin's next pick is the member that shed, and it answers.
	resp := doGet(t, rt, "/search?q=x")
	if got := resp.Header.Get("X-Backend"); resp.StatusCode != http.StatusOK || got != b.Name {
		t.Fatalf("second request: status %d from %q, want 200 from %q", resp.StatusCode, got, b.Name)
	}
	if calls.Load() != 2 {
		t.Fatalf("member that shed saw %d requests, want 2", calls.Load())
	}
}

// TestReadmitProbesFollowSeededBackoff pins Options.Seed's promise,
// "same seed, same recovery timing": an ejected member's /readyz probes
// land exactly at the instants backoff.New(seed, idx, backoffBase,
// backoffCap) schedules, each failed probe drawing the next delay, and
// the first probe that passes re-admits it.
func TestReadmitProbesFollowSeededBackoff(t *testing.T) {
	const seed, failing = 11, 4
	var probes atomic.Int64
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" && probes.Add(1) > failing {
			return
		}
		w.WriteHeader(http.StatusBadGateway)
	}))
	t.Cleanup(s.Close)
	rt, err := New(Options{Seed: seed}, s.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	advance := virtualTime(rt)
	b := rt.Backends()[0]
	for b.State() != Ejected {
		doGet(t, rt, "/search?q=x")
	}
	want := backoff.New(seed, b.idx, backoffBase, backoffCap)
	for i := 1; i <= failing+1; i++ {
		d := want.Next()
		advance(d - 1)
		if got := probes.Load(); got != int64(i-1) {
			t.Fatalf("probe %d sent before it was due, %v after the last (%d probes)", i, d, got)
		}
		advance(1)
		if got := probes.Load(); got != int64(i) {
			t.Fatalf("probe %d not sent when due, %v after the last (%d probes)", i, d, got)
		}
	}
	if b.State() != Active || b.readmits.Load() != 1 {
		t.Fatalf("state %v, readmits %d after a passing probe; want active, 1", b.State(), b.readmits.Load())
	}
}

// TestShedForwardedWhenSaturated: when every member sheds, the client
// sees the 429 (shed accounting, not an invented error).
func TestShedForwardedWhenSaturated(t *testing.T) {
	a := statusBackend(t, http.StatusTooManyRequests, map[string]string{"Retry-After": "1"})
	b := statusBackend(t, http.StatusTooManyRequests, map[string]string{"Retry-After": "1"})
	rt, err := New(Options{Seed: 1}, a.URL, b.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp := doGet(t, rt, "/search?q=x")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 forwarded", resp.StatusCode)
	}
	if rt.Stats().Sheds != 1 {
		t.Fatalf("sheds = %d, want 1", rt.Stats().Sheds)
	}
}

// TestNoEligibleBackend503: with every member out, the router answers
// its own 503 with a machine-readable code and Retry-After. The sole
// member is ejected after ejectAfter 5xx answers, on a virtual clock
// that does not reach its first re-admission probe.
func TestNoEligibleBackend503(t *testing.T) {
	a := statusBackend(t, http.StatusInternalServerError, nil)
	rt, err := New(Options{Seed: 1}, a.URL)
	if err != nil {
		t.Fatal(err)
	}
	virtualTime(rt)
	for i := 0; i < ejectAfter; i++ {
		if resp := doGet(t, rt, "/search?q=x"); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status = %d, want the member's 500", i, resp.StatusCode)
		}
	}
	if st := rt.Backends()[0].State(); st != Ejected {
		t.Fatalf("member state %v after %d 5xx answers, want ejected", st, ejectAfter)
	}
	resp := doGet(t, rt, "/search?q=x")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatal("router 503 missing Retry-After")
	}
	body, _ := io.ReadAll(resp.Body)
	if want := "router_no_backend"; !contains(string(body), want) {
		t.Fatalf("body %q missing %q", body, want)
	}
	if rt.Stats().NoBackend != 1 {
		t.Fatalf("no_backend = %d, want 1", rt.Stats().NoBackend)
	}
}

// TestStatzPollReadsAdmissionGauge: one health tick refreshes an active
// member's reported load from its /statz, the only load report the
// router reads; a failed poll counts toward ejection.
func TestStatzPollReadsAdmissionGauge(t *testing.T) {
	a := okBackend(t, `{"instance":"i0","inflight":7,"capacity":64}`)
	dead := deadAddr(t)
	rt, err := New(Options{Seed: 1}, a.URL, dead)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	(&healthLoop{rt: rt}).tick(context.Background())
	bs := rt.Backends()
	if r := bs[0].reported.Load(); r != 7 {
		t.Fatalf("reported = %d, want 7", r)
	}
	if c := bs[1].consec.Load(); c != 1 {
		t.Fatalf("failed poll: consecutive errors = %d, want 1", c)
	}
}

// TestAddRemoveBackend covers adding members: bad URLs are refused.
func TestAddRemoveBackend(t *testing.T) {
	a := okBackend(t, "a")
	rt, err := New(Options{Seed: 1}, a.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddNamedBackend("", "not a url ::"); err == nil {
		t.Fatal("bad URL accepted")
	}
	if _, err := rt.AddNamedBackend("", "nohost"); err == nil {
		t.Fatal("schemeless URL accepted")
	}
	b := okBackend(t, "b")
	nb, err := rt.AddNamedBackend("", b.URL)
	if err != nil {
		t.Fatal(err)
	}
	if bs := rt.Backends(); len(bs) != 2 || bs[1] != nb {
		t.Fatalf("backends = %v, want the original plus %s", bs, nb.Name)
	}
}

// TestRelayEndToEnd drives a real client through the router: the body
// arrives byte for byte with the member's Content-Length, hop-by-hop
// headers stay with the router, and a redirect is relayed rather than
// followed.
func TestRelayEndToEnd(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/old" {
			http.Redirect(w, r, "/search?q=moved", http.StatusFound)
			return
		}
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Keep-Alive", "timeout=5")
		h.Set("X-Query", r.URL.RawQuery)
		w.Write(searchBody)
	}))
	defer backend.Close()
	rt, err := New(Options{Seed: 1}, backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	defer client.CloseIdleConnections()

	// Four clients at once, so pooled call state is shared between
	// goroutines under -race.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := client.Get(front.URL + "/search?q=free+download&country=US")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || string(body) != string(searchBody) || resp.ContentLength != int64(len(searchBody)) {
					t.Errorf("body differs: %d bytes, ContentLength %d, err %v", len(body), resp.ContentLength, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	resp, err := client.Get(front.URL + "/search?q=free+download&country=US")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Query"); got != "q=free+download&country=US" {
		t.Fatalf("member saw query %q", got)
	}
	if v := resp.Header.Get("Keep-Alive"); v != "" {
		t.Fatalf("Keep-Alive relayed to the client: %q", v)
	}
	if resp.Header.Get("X-Backend") != rt.Backends()[0].Name {
		t.Fatalf("X-Backend = %q", resp.Header.Get("X-Backend"))
	}

	resp, err = client.Get(front.URL + "/old")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusFound || resp.Header.Get("Location") != "/search?q=moved" {
		t.Fatalf("redirect: status %d, Location %q", resp.StatusCode, resp.Header.Get("Location"))
	}
}

// TestAffinityKeyMatchesQueryGet holds the in-place scan of RawQuery to
// what it replaces: hashKey of r.URL.Query().Get("q"), else of the path.
func TestAffinityKeyMatchesQueryGet(t *testing.T) {
	want := func(u *url.URL) uint64 {
		if q := u.Query().Get("q"); q != "" {
			return stats.FNV1a(stats.FNVOffset, q)
		}
		return stats.FNV1a(stats.FNVOffset, u.Path)
	}
	raws := []string{
		"", "q", "q=", "q=x", "Q=x", "q=a+b", "q=%41%2b", "q=%4", "q=%zz&q=ok",
		"a=1;q=2&q=x", "%71=x", "q=&q=x", "q=x=y", "&&q=x&", "country=US&q=free+download",
		"q=caf%C3%A9", "q=%%41",
	}
	rng := rand.New(rand.NewSource(1))
	const alphabet = "q=&;%+aF1 2"
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(14))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		raws = append(raws, string(b))
	}
	for _, raw := range raws {
		u := &url.URL{Path: "/search", RawQuery: raw}
		if got, w := affinityKey(u), want(u); got != w {
			t.Fatalf("RawQuery %s: affinityKey %x, want %x", strconv.Quote(raw), got, w)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
