package loadgen

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestRunIsOpenLoop: each request goes out when it is due, whether or
// not earlier ones have answered. The server holds every request until
// n are in flight at once, or until a second has passed, so a generator
// that waits for an answer before it sends again never holds n.
func TestRunIsOpenLoop(t *testing.T) {
	const n = 32
	var (
		mu       sync.Mutex
		inflight int
		peak     int
	)
	all := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		inflight++
		peak = max(peak, inflight)
		if inflight == n {
			close(all)
		}
		mu.Unlock()
		select {
		case <-all:
		case <-time.After(time.Second):
		}
		mu.Lock()
		inflight--
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ads":[]}`)
	}))
	defer srv.Close()

	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Offset: time.Duration(i) * time.Millisecond, Query: "q", Country: "US"}
	}
	rep := run(srv.URL, []Class{{Name: "all", Weight: 1, Kind: "head"}}, reqs, nil)

	mu.Lock()
	defer mu.Unlock()
	if peak != n {
		t.Errorf("at most %d of %d requests were in flight at once", peak, n)
	}
	if rep.Total.Sent != n || rep.Total.OK != n {
		t.Errorf("sent %d, ok %d; want %d answered OK", rep.Total.Sent, rep.Total.OK, n)
	}
}
