package adserver

// Middleware stack for the serving path. Each middleware is a plain
// http.Handler wrapper so the stack composes with Chain and with the
// fault-injection hook (Options.Wrap) without any framework machinery.
// The stack exists to make failure behavior a first-class property of
// the front end: panics become structured 500s, overload becomes a fast
// 429 with a Retry-After hint instead of an unbounded queue, and every
// request carries an ID and a deadline.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// Middleware wraps an http.Handler with one resilience concern.
type Middleware func(http.Handler) http.Handler

// Chain applies mw left-to-right: the first middleware is outermost
// (sees the request first).
func Chain(h http.Handler, mw ...Middleware) http.Handler {
	for i := len(mw) - 1; i >= 0; i-- {
		h = mw[i](h)
	}
	return h
}

// ctxKey is the private type for request-scoped values.
type ctxKey int

const requestIDKey ctxKey = iota

// RequestIDFromContext returns the request ID tagged by the RequestID
// middleware, or "" if the request did not pass through it.
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// RequestID tags every request with an ID — the client-provided
// X-Request-ID if present, otherwise a sequential ID from a per-stack
// counter (deterministic for sequential traffic, which the golden
// response snapshot relies on). The ID is echoed in the response header
// and carried in the request context for error bodies and logs.
func RequestID() Middleware {
	var n atomic.Uint64
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := r.Header.Get("X-Request-ID")
			if id == "" {
				id = fmt.Sprintf("r%08d", n.Add(1))
			}
			w.Header().Set("X-Request-ID", id)
			next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
		})
	}
}

// Recover converts handler panics into structured 500 responses so a
// single poisoned request path can never take the process down. onPanic
// (optional) observes the recovered value for counters/logs.
// http.ErrAbortHandler is re-raised per net/http convention.
func Recover(onPanic func(v interface{})) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				v := recover()
				if v == nil {
					return
				}
				if v == http.ErrAbortHandler {
					panic(v)
				}
				if onPanic != nil {
					onPanic(v)
				}
				writeError(w, r, http.StatusInternalServerError, "internal_panic",
					fmt.Sprintf("request handler panicked: %v", v), 0)
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// Deadline bounds each request with a context deadline. Handlers observe
// the context and return a structured 504 when the budget is exhausted;
// the middleware itself only arms the clock.
func Deadline(d time.Duration) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			next.ServeHTTP(w, r.WithContext(ctx))
		})
	}
}

// InFlightGauge exposes the admission gate's live occupancy on /statz,
// which the cluster router polls for its least-loaded policy: Load is
// the number of requests currently inside the gate, Capacity the gate's
// bound. The zero value reads 0/0 (no gate).
type InFlightGauge struct {
	cur atomic.Int64
	cap int64
}

// Load returns the current in-flight request count.
func (g *InFlightGauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.cur.Load()
}

// Capacity returns the admission bound (0 = no admission control).
func (g *InFlightGauge) Capacity() int64 {
	if g == nil {
		return 0
	}
	return g.cap
}

// Admission is the load-shedding gate: at most maxInFlight requests run
// concurrently, and requests beyond that are rejected immediately with
// 429 + Retry-After instead of queueing unboundedly behind a slow
// backend. retryAfter is the hint sent to clients (rounded up to whole
// seconds for the header); onShed (optional) observes each rejection;
// gauge (optional) tracks live occupancy for /statz.
func Admission(maxInFlight int, retryAfter time.Duration, onShed func(), gauge *InFlightGauge) Middleware {
	slots := make(chan struct{}, maxInFlight)
	if gauge != nil {
		gauge.cap = int64(maxInFlight)
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case slots <- struct{}{}:
				if gauge != nil {
					gauge.cur.Add(1)
					defer gauge.cur.Add(-1)
				}
				defer func() { <-slots }()
				next.ServeHTTP(w, r)
			default:
				if onShed != nil {
					onShed()
				}
				writeError(w, r, http.StatusTooManyRequests, "overloaded",
					fmt.Sprintf("in-flight limit %d reached, retry later", maxInFlight), retryAfter)
			}
		})
	}
}

// InstanceHeader stamps every response with the serving instance's
// identity (X-Instance), so a client behind a router can attribute the
// answer. Mounted outermost on /search: shed responses carry it too.
func InstanceHeader(instance string) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Instance", instance)
			next.ServeHTTP(w, r)
		})
	}
}

// ErrorBody is the structured JSON payload for every non-2xx response
// the resilience stack emits (shed, panic, timeout, bad request).
type ErrorBody struct {
	Error      string `json:"error"`
	Code       string `json:"code"`
	RequestID  string `json:"requestId,omitempty"`
	RetryAfter int    `json:"retryAfterSeconds,omitempty"`
}

// writeError emits a structured error response. A non-zero retryAfter
// also sets the standard Retry-After header (whole seconds, rounded up).
func writeError(w http.ResponseWriter, r *http.Request, status int, code, msg string, retryAfter time.Duration) {
	body := ErrorBody{Error: msg, Code: code, RequestID: RequestIDFromContext(r.Context())}
	if retryAfter > 0 {
		secs := int((retryAfter + time.Second - 1) / time.Second)
		body.RetryAfter = secs
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
