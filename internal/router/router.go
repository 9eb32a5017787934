// Package router fronts N adserver instances with a policy-driven HTTP
// reverse proxy: pluggable balancing (round-robin, least-loaded on the
// admission gate's in-flight gauge, keyword-affinity via rendezvous
// hashing so a query's cache locality survives member churn),
// health-aware member management (eject on consecutive proxy errors or
// failed /readyz probes, seeded-backoff re-admission on the
// internal/backoff schedule), and bounded retry of connection errors,
// 5xx and 429s on a different backend. A member's admission gate is the
// cluster's only capacity signal: a 429 sends the request to another
// member and leaves the one that shed in rotation, since its gate frees
// a slot as soon as any of its requests ends.
//
// The router's client-visible failure surface is forwarded 429s (every
// member tried was at admission capacity) and router-generated 503s (no
// eligible backend: every member is ejected, an outage). Single-backend
// latency/error/crash injection is masked by retrying elsewhere — the
// property the chaos suite pins.
//
// Its timings are constants, and every ejection and probe stamp reads
// one clock, which the chaos suite replaces with a virtual one.
package router

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/stats"
)

// State is a backend's membership state.
type State int32

const (
	// Active backends receive traffic.
	Active State = iota
	// Ejected backends are out of rotation until a readyz probe passes.
	Ejected
)

func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Ejected:
		return "ejected"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Backend is one adserver instance behind the router.
type Backend struct {
	Name string
	URL  *url.URL
	idx  int
	// xBackend is the X-Backend header value naming this member, built
	// once and shared read-only by every response it answers.
	xBackend []string

	inflight  atomic.Int64  // requests this router currently has open to it
	reported  atomic.Int64  // in-flight count the backend's /statz last reported
	served    atomic.Uint64 // successful proxied responses
	errors    atomic.Uint64 // transport errors + 5xx from this backend
	consec    atomic.Int64  // consecutive errors; reset on any success
	state     atomic.Int32
	ejections atomic.Uint64
	readmits  atomic.Uint64

	backoff   *backoff.Backoff
	nextProbe atomic.Int64 // unix nanos of the next re-admission probe
}

// State returns the backend's membership state.
func (b *Backend) State() State { return State(b.state.Load()) }

// load is the least-loaded signal: the larger of the router-local gauge
// and the in-flight count the backend's /statz last reported (the local
// gauge misses traffic from other routers; the poll lags ours).
func (b *Backend) load() int64 {
	l, r := b.inflight.Load(), b.reported.Load()
	if r > l {
		return r
	}
	return l
}

// retries bounds the additional attempts on a different backend after
// a connection error, 5xx or 429, probeTimeout each health probe, and
// ejectAfter consecutive errors eject a backend; backoffBase and
// backoffCap bound the seeded re-admission backoff, and probeInterval is
// the health loop's tick (see healthLoop).
const (
	retries       = 2
	probeTimeout  = time.Second
	ejectAfter    = 3
	backoffBase   = 50 * time.Millisecond
	backoffCap    = 2 * time.Second
	probeInterval = 250 * time.Millisecond
)

// Options configures a Router.
type Options struct {
	// Policy picks a backend per request. Defaults to RoundRobin.
	Policy Policy
	// Seed drives every re-admission backoff schedule; same seed, same
	// recovery timing.
	Seed uint64
	// Transport overrides the proxy transport (tests inject
	// failure-returning transports). Defaults to a transport of the
	// router's own (see newTransport).
	Transport http.RoundTripper
}

// idleConnsPerBackend is how many idle keep-alive connections the
// router keeps to each member: the adserver's default admission bound,
// so any burst a member admits is served on connections already open.
const idleConnsPerBackend = 256

// newTransport is the router's own transport. http.DefaultTransport is
// process-global and keeps two idle connections per host, so with more
// than two concurrent senders the router would redial a member on most
// requests. Compression is off: the router relays bodies byte for byte.
func newTransport() *http.Transport {
	return &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConnsPerHost: idleConnsPerBackend,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
}

// Router is the policy-driven front door. Safe for concurrent use.
type Router struct {
	opts   Options
	client *http.Client     // the health loop's probes, over opts.Transport
	calls  sync.Pool        // *call
	now    func() time.Time // every ejection and probe stamp; tests set a virtual clock

	mu       sync.RWMutex
	backends []*Backend

	received  atomic.Uint64 // requests accepted from clients
	retried   atomic.Uint64 // extra proxy attempts beyond the first
	masked    atomic.Uint64 // failures hidden from the client by a retry
	noBackend atomic.Uint64 // router-generated 503s (no eligible member)
	sheds     atomic.Uint64 // backend 429s forwarded to the client

	health *healthLoop
}

// New builds a router over the given backend base URLs (name -> URL).
// Backends are indexed in the order given; policies use the index for
// deterministic tie-breaks.
func New(opts Options, backends ...string) (*Router, error) {
	if opts.Policy == nil {
		opts.Policy = NewRoundRobin()
	}
	if opts.Transport == nil {
		opts.Transport = newTransport()
	}
	rt := &Router{
		opts:   opts,
		client: &http.Client{Transport: opts.Transport},
		now:    time.Now,
	}
	for _, raw := range backends {
		if _, err := rt.AddNamedBackend("", raw); err != nil {
			return nil, err
		}
	}
	return rt, nil
}

// AddNamedBackend registers a member, active immediately, under a
// stable name of the caller's choosing (empty falls back to the URL
// host). The name is the member's routing identity: the affinity policy
// hashes it, so giving instances stable names keeps the keyspace
// mapping reproducible across runs even when listeners land on
// ephemeral ports.
func (rt *Router) AddNamedBackend(name, raw string) (*Backend, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("router: backend url %q: %w", raw, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("router: backend url %q: need scheme and host", raw)
	}
	if name == "" {
		name = u.Host
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b := &Backend{Name: name, URL: u, idx: len(rt.backends), xBackend: []string{name}}
	b.backoff = backoff.New(rt.opts.Seed, b.idx, backoffBase, backoffCap)
	rt.backends = append(rt.backends, b)
	return b, nil
}

// Backends snapshots the current member list.
func (rt *Router) Backends() []*Backend {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]*Backend, len(rt.backends))
	copy(out, rt.backends)
	return out
}

// eligible appends to dst the backends a new request may be sent to,
// excluding the already-tried ones.
func (rt *Router) eligible(dst, tried []*Backend) []*Backend {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	for _, b := range rt.backends {
		if b.State() != Active || slices.Contains(tried, b) {
			continue
		}
		dst = append(dst, b)
	}
	return dst
}

// call is one client request's routing state, pooled so that a request
// answered by its first attempt allocates nothing in the router: the
// members tried so far, the candidate scratch, the first attempt's
// outbound request and the relay buffer. A retry builds its own outbound
// request, because the transport may still hold an attempt that failed,
// and the response of one that was shed may be kept for relay; a call
// that retried is not pooled again.
type call struct {
	tried []*Backend
	cands []*Backend
	req   http.Request
	url   url.URL
	buf   [4 << 10]byte
}

// ServeHTTP proxies the request to a policy-picked backend, retrying
// connection errors, 5xx and 429s on a different member within the
// retry budget. When every member is tried or out, the client sees the
// last member's answer (or a router 503 when no member was eligible at
// all).
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.received.Add(1)
	c, _ := rt.calls.Get().(*call)
	if c == nil {
		c = &call{}
	}
	c.tried = c.tried[:0]
	key := affinityKey(r.URL)
	attempts := retries + 1
	reuse := true // c.req may go back to the pool with c

	var lastResp *http.Response
	var lastBackend *Backend
	for attempt := 0; attempt < attempts; attempt++ {
		c.cands = rt.eligible(c.cands[:0], c.tried)
		if len(c.cands) == 0 {
			break
		}
		b := rt.opts.Policy.Pick(key, c.cands)
		if b == nil {
			break
		}
		c.tried = append(c.tried, b)
		out, u := &c.req, &c.url
		if attempt > 0 {
			rt.retried.Add(1)
			out, u, reuse = new(http.Request), new(url.URL), false
		}
		resp, err := rt.forward(b, outbound(out, u, r, b))
		if err != nil {
			reuse = false
			b.noteError(rt)
			continue // connection error: try elsewhere
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			// Admission shed: not an error, and the member stays in
			// rotation; try another.
			rt.dropOrKeep(&lastResp, resp)
			lastBackend = b
			continue
		case resp.StatusCode >= 500:
			b.noteError(rt)
			rt.dropOrKeep(&lastResp, resp)
			lastBackend = b
			continue
		}
		// Success: anything below 500 that isn't a shed is the backend's
		// real answer (including 4xx like missing_query).
		b.consec.Store(0)
		b.served.Add(1)
		if len(c.tried) > 1 {
			rt.masked.Add(1)
		}
		if lastResp != nil {
			discard(lastResp)
		}
		writeResponse(w, resp, b, c.buf[:])
		rt.release(c, reuse)
		return
	}

	if lastResp != nil {
		// Out of options: surface the last backend answer (a 429 is shed
		// accounting; a 5xx means every member failed).
		if lastResp.StatusCode == http.StatusTooManyRequests {
			rt.sheds.Add(1)
		}
		writeResponse(w, lastResp, lastBackend, c.buf[:])
		rt.release(c, reuse)
		return
	}
	rt.release(c, reuse)
	rt.noBackend.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", "1")
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintf(w, `{"error":"no eligible backend","code":"router_no_backend"}`+"\n")
}

// release returns c to the pool once every response its requests got
// has been closed; reuse is false when c.req may still be in use.
func (rt *Router) release(c *call, reuse bool) {
	if !reuse {
		return
	}
	clear(c.tried)
	clear(c.cands)
	c.req, c.url = http.Request{}, url.URL{} // hold nothing of the client's
	rt.calls.Put(c)
}

// outbound fills req as r re-addressed to member b, with u as its URL.
// The copy of *r carries the client's context, so a client that goes
// away cancels the attempt; the header map is shared, not copied, since
// the transport only reads it. The body is not forwarded.
func outbound(req *http.Request, u *url.URL, r *http.Request, b *Backend) *http.Request {
	*u = *b.URL
	u.Path, u.RawPath, u.RawQuery = r.URL.Path, r.URL.RawPath, r.URL.RawQuery
	*req = *r
	req.URL, req.Host, req.RequestURI = u, "", ""
	req.Body, req.GetBody, req.ContentLength, req.TransferEncoding = nil, nil, 0, nil
	req.Close, req.Trailer = false, nil
	return req
}

// forward issues one proxy attempt, holding the backend's in-flight
// gauge for its duration. It calls the transport directly: a redirect
// is the backend's answer to relay, not one for the router to follow.
func (rt *Router) forward(b *Backend, out *http.Request) (*http.Response, error) {
	b.inflight.Add(1)
	resp, err := rt.opts.Transport.RoundTrip(out)
	b.inflight.Add(-1)
	return resp, err
}

// writeResponse relays a backend response through buf, stamping which
// member answered, and closes its body.
func writeResponse(w http.ResponseWriter, resp *http.Response, b *Backend, buf []byte) {
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		if relayed(k) {
			h[k] = vs
		}
	}
	if b != nil {
		h["X-Backend"] = b.xBackend
	}
	w.WriteHeader(resp.StatusCode)
	relay(w, resp.Body, buf)
}

// relayed reports whether a backend response header goes on to the
// client. The hop-by-hop headers (RFC 9110 §7.6.1) describe the
// router's connection to the member, not the client's.
func relayed(k string) bool {
	switch k {
	case "Connection", "Keep-Alive", "Proxy-Connection", "Te", "Trailer",
		"Transfer-Encoding", "Upgrade":
		return false
	}
	return true
}

// relay copies body to w through buf and w.Write, never through the
// io.ReaderFrom that net/http's ResponseWriter implements (and that
// io.Copy would pick). That ReadFrom sends the headers and the first
// 512 bytes to the socket at once, then hands the rest to the TCP
// connection's own ReadFrom, which copies a reader that is neither a
// file nor a socket through a fresh 32 KiB buffer straight to the
// socket: a 1 KiB reply would cost two write system calls and a 32 KiB
// allocation. Through Write it is buffered, and a reply that fits the
// server's buffer leaves in one write when the handler returns.
func relay(w io.Writer, body io.Reader, buf []byte) {
	for {
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// dropOrKeep retains resp as the newest terminal candidate, discarding
// the previous one.
func (rt *Router) dropOrKeep(last **http.Response, resp *http.Response) {
	if *last != nil {
		discard(*last)
	}
	*last = resp
}

func discard(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// noteError bumps the backend's error counters and ejects it once the
// consecutive-error threshold trips.
func (b *Backend) noteError(rt *Router) {
	b.errors.Add(1)
	c := b.consec.Add(1)
	if c >= ejectAfter &&
		b.state.CompareAndSwap(int32(Active), int32(Ejected)) {
		b.ejections.Add(1)
		b.nextProbe.Store(rt.now().Add(b.backoff.Next()).UnixNano())
	}
}

// affinityKey is the routing key's hash (FNV-1a): the search phrase
// when present (so identical queries pin to the same member's caches),
// else the path. The phrase is the first "q" value exactly as
// r.URL.Query().Get("q") decodes it, read from RawQuery in place instead
// of through a url.Values built per request.
func affinityKey(u *url.URL) uint64 {
	raw := u.RawQuery
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		k, v, _ := strings.Cut(pair, "=")
		if (k != "q" && k != "%71") || strings.Contains(pair, ";") {
			continue // another parameter, or a pair url.ParseQuery rejects
		}
		h, ok := hashEscaped(v)
		if !ok {
			continue // ParseQuery drops a value it cannot unescape
		}
		if v == "" {
			break
		}
		return h
	}
	return stats.FNV1a(stats.FNVOffset, u.Path)
}

// hashEscaped is the FNV-1a hash of url.QueryUnescape(s), decoded as it
// is hashed; ok is false where QueryUnescape fails.
func hashEscaped(s string) (h uint64, ok bool) {
	h = stats.FNVOffset
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '+':
			c = ' '
		case '%':
			if i+2 >= len(s) {
				return 0, false
			}
			hi, ok1 := unhex(s[i+1])
			lo, ok2 := unhex(s[i+2])
			if !ok1 || !ok2 {
				return 0, false
			}
			c = hi<<4 | lo
			i += 2
		}
		h ^= uint64(c)
		h *= stats.FNVPrime
	}
	return h, true
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// Stats is a point-in-time snapshot of router and member counters.
type Stats struct {
	Policy    string         `json:"policy"`
	Received  uint64         `json:"received"`
	Retried   uint64         `json:"retried"`
	Masked    uint64         `json:"masked"`
	NoBackend uint64         `json:"no_backend"`
	Sheds     uint64         `json:"sheds"`
	Backends  []BackendStats `json:"backends"`
}

// BackendStats is one member's counters.
type BackendStats struct {
	Name      string `json:"name"`
	State     string `json:"state"`
	Served    uint64 `json:"served"`
	Errors    uint64 `json:"errors"`
	Ejections uint64 `json:"ejections"`
	Readmits  uint64 `json:"readmits"`
	InFlight  int64  `json:"inflight"`
	Reported  int64  `json:"reported"`
}

// Stats snapshots the router's counters.
func (rt *Router) Stats() Stats {
	s := Stats{
		Policy:    rt.opts.Policy.Name(),
		Received:  rt.received.Load(),
		Retried:   rt.retried.Load(),
		Masked:    rt.masked.Load(),
		NoBackend: rt.noBackend.Load(),
		Sheds:     rt.sheds.Load(),
	}
	for _, b := range rt.Backends() {
		s.Backends = append(s.Backends, BackendStats{
			Name:      b.Name,
			State:     b.State().String(),
			Served:    b.served.Load(),
			Errors:    b.errors.Load(),
			Ejections: b.ejections.Load(),
			Readmits:  b.readmits.Load(),
			InFlight:  b.inflight.Load(),
			Reported:  b.reported.Load(),
		})
	}
	return s
}
