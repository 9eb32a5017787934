package adserver

// The serving stack Handler returns. It makes failure behavior a
// first-class property of the front end: every request carries an ID,
// panics become structured 500s, and /search overload becomes a fast
// 429 with a Retry-After hint instead of an unbounded queue, while a
// /search miss runs under a deadline.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// retryAfterSeconds is the Retry-After hint on every 429 and 503 the
// server writes.
const retryAfterSeconds = 1

// requestIDHeader is X-Request-ID in net/http's canonical form, which
// header lookups and sets then use without rewriting the key.
const requestIDHeader = "X-Request-Id"

// stack is the handler Handler returns. Every route gets a request ID
// and panic recovery; /search additionally gets, in order, the
// X-Instance header, admission, the response cache, the deadline, and
// then search (handleSearch inside Options.Wrap). The other routes are
// the ones New registers, served by s.mux.
type stack struct {
	s       *Server
	ids     atomic.Uint64
	slots   chan struct{} // admission gate; nil when MaxInFlight <= 0
	timeout time.Duration // per-request deadline; none when <= 0
	search  http.Handler
}

// ServeHTTP tags the request with the client's X-Request-ID, or a
// sequential one from the stack's counter (deterministic for sequential
// traffic, which the golden response snapshot relies on), echoes it in
// the response header, where writeError reads it, and recovers panics.
func (h *stack) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(requestIDHeader)
	if id == "" {
		id = fmt.Sprintf("r%08d", h.ids.Add(1))
	}
	w.Header().Set(requestIDHeader, id)
	defer h.recoverPanic(w)
	if r.URL.Path != "/search" {
		// Health, readiness and the counters bypass admission and the
		// deadline so they stay accurate under overload.
		h.s.mux.ServeHTTP(w, r)
		return
	}
	h.serveSearch(w, r)
}

// recoverPanic turns a handler panic into a counted, structured 500, so a
// single poisoned request path can never take the process down.
// http.ErrAbortHandler is re-raised per net/http convention.
func (h *stack) recoverPanic(w http.ResponseWriter) {
	v := recover()
	if v == nil {
		return
	}
	if v == http.ErrAbortHandler {
		panic(v)
	}
	h.s.panics.Add(1)
	writeError(w, http.StatusInternalServerError, "internal_panic",
		fmt.Sprintf("request handler panicked: %v", v), 0)
}

func (h *stack) serveSearch(w http.ResponseWriter, r *http.Request) {
	s := h.s
	// Set before admission: shed responses name their instance too.
	if s.instance != "" {
		w.Header().Set("X-Instance", s.instance)
	}
	if h.slots != nil {
		select {
		case h.slots <- struct{}{}:
			s.inflight.Add(1)
			defer func() {
				s.inflight.Add(-1)
				<-h.slots
			}()
		default:
			s.shed.Add(1)
			writeError(w, http.StatusTooManyRequests, "overloaded",
				fmt.Sprintf("in-flight limit %d reached, retry later", cap(h.slots)), retryAfterSeconds)
			return
		}
	}
	// The cache sits inside admission (a hit still occupies a slot,
	// briefly) and outside the deadline and the fault wrap: a hit cannot
	// run late, so it arms no timer, and it skips whatever latency the
	// wrap models. The key is the raw query string, as an HTTP cache
	// keys on the URI: the reply is a function of the q and country it
	// decodes to, so equal keys mean equal replies, and a hit parses
	// nothing.
	var cw *captureWriter
	if s.cache != nil {
		if body, ok := s.cache.get(r.URL.RawQuery); ok {
			hd := w.Header()
			hd.Set("Content-Type", "application/json")
			hd.Set("X-Cache", "hit")
			w.Write(body)
			return
		}
		w.Header().Set("X-Cache", "miss")
		cw = &captureWriter{ResponseWriter: w}
		w = cw
	}
	if h.timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), h.timeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	h.search.ServeHTTP(w, r)
	// Only after a normal return: a request that panics is never cached.
	if cw != nil && cw.status == http.StatusOK && len(cw.buf) > 0 {
		s.cache.put(r.URL.RawQuery, cw.buf)
	}
}

// ErrorBody is the structured JSON payload for every non-2xx response
// the serving stack emits (shed, panic, timeout, bad request).
type ErrorBody struct {
	Error      string `json:"error"`
	Code       string `json:"code"`
	RequestID  string `json:"requestId,omitempty"`
	RetryAfter int    `json:"retryAfterSeconds,omitempty"`
}

// writeError emits a structured error response carrying the request ID
// the stack echoed. A non-zero retryAfter (whole seconds) also sets the
// standard Retry-After header.
func writeError(w http.ResponseWriter, status int, code, msg string, retryAfter int) {
	h := w.Header()
	body := ErrorBody{Error: msg, Code: code, RequestID: h.Get(requestIDHeader), RetryAfter: retryAfter}
	if retryAfter > 0 {
		h.Set("Retry-After", fmt.Sprint(retryAfter))
	}
	h.Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
