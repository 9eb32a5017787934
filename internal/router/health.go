package router

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// healthLoop is the router's member-management goroutine: each tick it
// (a) probes ejected members whose seeded backoff has elapsed with a
// /readyz and re-admits on success, and (b) refreshes active members'
// /statz so the least-loaded policy reads the admission gate's real
// in-flight signal rather than guessing from local state.
type healthLoop struct {
	rt     *Router
	cancel context.CancelFunc
	done   chan struct{}
}

// StartHealth launches the member-management loop. Call Close to stop
// it; starting twice is a no-op.
func (rt *Router) StartHealth() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.health != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &healthLoop{rt: rt, cancel: cancel, done: make(chan struct{})}
	rt.health = h
	go h.run(ctx)
}

// Close stops the health loop (if running), waits for it to exit, and
// closes the transport's idle connections to the members.
func (rt *Router) Close() {
	rt.mu.Lock()
	h := rt.health
	rt.health = nil
	rt.mu.Unlock()
	if h != nil {
		h.cancel()
		<-h.done
	}
	rt.client.CloseIdleConnections()
}

func (h *healthLoop) run(ctx context.Context) {
	defer close(h.done)
	t := time.NewTicker(probeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			h.tick(ctx)
		}
	}
}

// tick probes every member that needs attention. Probes run
// concurrently (a wedged backend must not delay the others) but the
// tick waits for them, so at most one probe per member is in flight.
func (h *healthLoop) tick(ctx context.Context) {
	now := h.rt.now()
	var wg sync.WaitGroup
	for _, b := range h.rt.Backends() {
		b := b
		switch b.State() {
		case Ejected:
			if now.UnixNano() < b.nextProbe.Load() {
				continue
			}
			wg.Add(1)
			go func() { defer wg.Done(); h.probeReady(ctx, b) }()
		case Active:
			wg.Add(1)
			go func() { defer wg.Done(); h.refreshStatz(ctx, b) }()
		}
	}
	wg.Wait()
}

// probeReady asks an ejected member if it is serving again; success
// re-admits it, failure schedules the next probe by the member's seeded
// backoff.
func (h *healthLoop) probeReady(ctx context.Context, b *Backend) {
	if h.get(ctx, b, "/readyz", nil) {
		b.consec.Store(0)
		b.backoff.Reset()
		b.readmits.Add(1)
		b.state.CompareAndSwap(int32(Ejected), int32(Active))
		return
	}
	b.nextProbe.Store(h.rt.now().Add(b.backoff.Next()).UnixNano())
}

// statzBody mirrors the adserver /statz reply field the router reads.
type statzBody struct {
	InFlight int64 `json:"inflight"`
}

// refreshStatz pulls an active member's admission gauge. Probe failures
// count toward the member's consecutive-error ejection threshold, so a
// backend that stops answering even its cheap probe route gets ejected
// without waiting for live traffic to notice.
func (h *healthLoop) refreshStatz(ctx context.Context, b *Backend) {
	var body statzBody
	if !h.get(ctx, b, "/statz", &body) {
		b.noteError(h.rt)
		return
	}
	b.reported.Store(body.InFlight)
}

// get issues one probe GET, decoding JSON into out when non-nil.
// Returns true on a 200.
func (h *healthLoop) get(ctx context.Context, b *Backend, path string, out interface{}) bool {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL.String()+path, nil)
	if err != nil {
		return false
	}
	resp, err := h.rt.client.Do(req)
	if err != nil {
		return false
	}
	defer discard(resp)
	if resp.StatusCode != http.StatusOK {
		return false
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return false
		}
	}
	return true
}
