package router

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// searchBody is the size of a typical /search reply: four or five ads
// rendered as JSON, a little over a kilobyte, so more than net/http's
// 512-byte sniff window.
var searchBody = []byte(`{"query":"free download","ads":[` + strings.Repeat(`{"position":1,"mainline":true,"advertiser":587,"title":"Free Download - Official Download","body":"Latest Version. Virus Checked.","displayUrl":"www.example.org","matchType":"exact","cpc":0.99,"clicked":false},`, 5) + `{}]}`)

// stubTransport answers every round trip with the same canned 200, so
// the router's own work is all that a benchmark over it measures: the
// in-process twin of the loopback hop.
type stubTransport struct {
	body   stubBody
	header http.Header
	resp   http.Response
}

// stubBody is a rewindable reply body. It is only a Reader, as the
// transport's bodies are, so io.Copy would hand it to a ReaderFrom.
type stubBody struct{ r bytes.Reader }

func (b *stubBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (*stubBody) Close() error                 { return nil }

func newStubTransport(body []byte) *stubTransport {
	st := &stubTransport{header: http.Header{
		"Content-Type":   {"application/json"},
		"Content-Length": {strconv.Itoa(len(body))},
		"X-Instance":     {"i0"},
	}}
	st.body.r.Reset(body)
	return st
}

func (st *stubTransport) RoundTrip(*http.Request) (*http.Response, error) {
	st.body.r.Seek(0, io.SeekStart)
	st.resp = http.Response{
		StatusCode:    http.StatusOK,
		Header:        st.header,
		Body:          &st.body,
		ContentLength: st.body.r.Size(),
	}
	return &st.resp, nil
}

// sinkWriter is a ResponseWriter that keeps its header map between
// requests and drops the body, so it allocates nothing itself. Like
// net/http's, it is also an io.ReaderFrom, and it records being used as
// one.
type sinkWriter struct {
	h        http.Header
	n        int
	readFrom bool
}

func (w *sinkWriter) Header() http.Header { return w.h }
func (w *sinkWriter) WriteHeader(int)     {}
func (w *sinkWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

func (w *sinkWriter) ReadFrom(r io.Reader) (int64, error) {
	w.readFrom = true
	return io.Copy(io.Discard, r)
}

// stubRouter is a two-member affinity router over a stub transport, and
// a request and writer to drive it with.
func stubRouter(tb testing.TB) (*Router, *http.Request, *sinkWriter) {
	tb.Helper()
	rt, err := New(Options{Policy: Affinity{}, Transport: newStubTransport(searchBody)},
		"http://127.0.0.1:1", "http://127.0.0.1:2")
	if err != nil {
		tb.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/search?q=free+download&country=US", nil)
	return rt, req, &sinkWriter{h: http.Header{}}
}

// raceEnabled is set by race_test.go: under the race detector sync.Pool
// drops items at random, so allocation counts are not the program's.
var raceEnabled bool

// TestServeHTTPAllocs pins the router's own per-request allocations:
// over a transport that allocates nothing, relaying a reply allocates
// nothing either, and the body goes through Write, never ReadFrom.
func TestServeHTTPAllocs(t *testing.T) {
	rt, req, w := stubRouter(t)
	allocs := testing.AllocsPerRun(200, func() {
		clear(w.h)
		rt.ServeHTTP(w, req)
	})
	if w.n != 201*len(searchBody) || w.readFrom {
		t.Fatalf("relayed %d bytes through Write (ReadFrom used: %v), want %d", w.n, w.readFrom, 201*len(searchBody))
	}
	if allocs != 0 && !raceEnabled {
		t.Fatalf("ServeHTTP allocates %.1f times per request, want 0", allocs)
	}
}

// BenchmarkServeHTTP is the router's own cost per request: pick, build
// the outbound request, relay headers and body, with no network.
func BenchmarkServeHTTP(b *testing.B) {
	rt, req, w := stubRouter(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clear(w.h)
		rt.ServeHTTP(w, req)
	}
}

// BenchmarkLoopbackHop is one routed /search exchange over loopback:
// client -> router -> backend and back, one sender, a reply the size of
// searchBody. Allocations count both servers and the client.
func BenchmarkLoopbackHop(b *testing.B) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(searchBody)
	}))
	defer backend.Close()
	rt, err := New(Options{Policy: Affinity{}}, backend.URL)
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()
	u := front.URL + "/search?q=free+download&country=US"
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(u)
		if err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || buf.Len() != len(searchBody) {
			b.Fatalf("status %d, %d bytes", resp.StatusCode, buf.Len())
		}
	}
}
