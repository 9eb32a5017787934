package adserver

// Server lifecycle: the Gate front door that answers health probes from
// the instant the socket is bound (before the bootstrap simulation has
// produced a platform to serve), and Serve, which runs an http.Server
// until a shutdown signal and then drains in-flight connections within a
// grace period.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"
)

// Gate is the swap-in front door for the serving process. It is mounted
// as the http.Server handler before the bootstrap simulation runs:
// /healthz answers 200 as soon as the socket is bound (the process is
// alive), /readyz answers 503 until Install is called with the real
// handler (load balancers keep traffic away while bootstrapping) and
// again once draining starts, and every other route answers a structured
// 503 until the inner handler exists.
type Gate struct {
	inner    atomic.Pointer[http.Handler]
	draining atomic.Bool
}

// NewGate returns a gate with no inner handler (not ready).
func NewGate() *Gate { return &Gate{} }

// Install atomically swaps in the real handler; /readyz flips to 200.
func (g *Gate) Install(h http.Handler) { g.inner.Store(&h) }

// StartDraining marks the gate as shutting down: /readyz returns 503 so
// load balancers stop routing here while in-flight requests finish.
func (g *Gate) StartDraining() { g.draining.Store(true) }

// ServeHTTP implements http.Handler.
func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		writeJSON(w, map[string]string{"status": "ok"})
		return
	case "/readyz":
		switch {
		case g.draining.Load():
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			writeJSONBody(w, map[string]string{"status": "draining"})
		case g.inner.Load() == nil:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			writeJSONBody(w, map[string]string{"status": "starting"})
		default:
			writeJSON(w, map[string]string{"status": "ready"})
		}
		return
	}
	if h := g.inner.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	writeError(w, http.StatusServiceUnavailable, "starting",
		"server is bootstrapping, not yet serving", retryAfterSeconds)
}

// Serve runs hs on ln until a value arrives on stop, then drains
// in-flight connections: the gate (optional) flips /readyz to draining,
// hs.Shutdown waits up to grace for open requests to finish, and
// connections that outlive the grace period are forcibly closed (the
// error is returned). A nil return means a clean drain; a Serve error
// (bad listener, closed socket) is returned as-is. logf (optional)
// receives progress lines.
func Serve(hs *http.Server, ln net.Listener, gate *Gate, grace time.Duration, stop <-chan os.Signal, logf func(format string, args ...interface{})) error {
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		if err == http.ErrServerClosed {
			return nil
		}
		return fmt.Errorf("adserver: serve: %w", err)
	case sig := <-stop:
		logf("adserver: received %v, draining (grace %s)", sig, grace)
	}

	if gate != nil {
		gate.StartDraining()
	}
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
		return fmt.Errorf("adserver: drain exceeded %s grace period: %w", grace, err)
	}
	logf("adserver: drained cleanly")
	return nil
}
