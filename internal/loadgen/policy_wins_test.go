//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package loadgen

// Router policy-under-fault checks over cmd/adbench's committed scenario
// files: round-robin against least-loaded and affinity on scenarios
// built to expose their structural advantages. Each run boots the whole
// cluster inside a testing/synctest bubble, over an in-memory network,
// so time is virtual: every unit of pressure the scenarios apply is an
// injected delay or a load-generator timer, and the bubble's clock moves
// only when every goroutine in it waits, so CPU time costs no virtual
// time at all. `make policy-wins` runs it (GOEXPERIMENT=synctest, Go
// 1.24). By hand, on the wall clock:
//
//	adbench -scenario cmd/adbench/testdata/scenario_slow_backend.json -policy least_loaded
//
// Two scenarios, two mechanisms:
//
//   - slow_backend: member i2 carries a 500ms injected service latency;
//     everything else is healthy and uncontended. Round-robin keeps
//     sending it a third of the traffic and waits out the latency every
//     time; least-loaded reads the in-flight gauge and routes around the
//     congestion, so its p99 collapses to the healthy members' service
//     time. The slow member sits at the highest index so the
//     least-loaded tie-break (lowest index wins at equal load) sends idle
//     ties to healthy members.
//
//   - cache_affinity: trending keywords (head class capped to the single
//     most popular keyword per vertical), a 1s injected "auction cost" on
//     every cache miss (the fault layer mounts inside the response cache,
//     so hits skip it), and — the load-bearing constraint — a 256-entry
//     response cache per member. The cache keys on (query, country), so
//     39 trending phrases fan out to ~600 cacheable pairs across markets:
//     the global working set does not fit any single member's cache, but
//     an affinity partition of it (one third of the phrases, ~200 pairs)
//     does. Round-robin therefore thrashes its LRUs forever — every
//     member needs every pair — and misses more than affinity (1 236
//     against 681 at seed 77). A calm 20s warmup at 55/s trips no
//     admission gate; the 8x flash crowd (440/s for 6s) then fills
//     members' 40 admission slots with 1s misses. A member's gate is the
//     cluster's only capacity signal: its 429 sends the request on to
//     another member, and the member that shed stays in rotation, since
//     a slot frees as soon as any of its requests ends. Round-robin
//     fills all three gates: 546 member 429s
//     (154/197/195), 288 requests answered by another member after one
//     or two of them, and 75 of 3 706 arrivals (2.0%) shed, each the
//     429 of the last of three members tried. Under affinity only the
//     hottest member (i2) overflows: its 10 429s are all answered by
//     i0 or i1 on the retry, and nothing is shed. No member is ejected
//     under either policy, so the router never answers no_backend
//     itself: every shed is a member's admission gate.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"testing/synctest"
	"time"
)

// TestRouterPolicyWins asserts the structural wins the two scenarios are
// built to expose.
func TestRouterPolicyWins(t *testing.T) {
	run := func(file, policy string) ScenarioReport {
		t.Helper()
		spec, err := LoadScenario(filepath.Join("..", "..", "cmd", "adbench", "testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		spec.Policy = policy
		var rep ScenarioReport
		wall := time.Now()
		synctest.Run(func() {
			rep, err = runScenario(spec, nil, newPipeNet().network())
		})
		if err != nil {
			t.Fatal(err)
		}
		var member429s []int64
		for _, b := range rep.Backends {
			member429s = append(member429s, b.Shed)
		}
		t.Logf("%s/%s: %s wall, %s virtual; p99 %v, shed %.4f, err %.4f, cache misses %d; %d sent, member 429s %v, router masked %d, sheds %d, no_backend %d",
			spec.Name, policy, time.Since(wall).Round(time.Millisecond), time.Duration(rep.Load.WallNS),
			time.Duration(rep.Load.Total.Latency.P99NS), rep.Load.Total.ShedRate, rep.Load.Total.ErrRate, misses(rep),
			rep.Load.Total.Sent, member429s, rep.Router.Masked, rep.Router.Sheds, rep.Router.NoBackend)
		// No member is ejected in these scenarios, so the router has no
		// reason to answer for itself.
		if rep.Router.NoBackend != 0 {
			t.Errorf("%s/%s: router answered %d no_backend 503s with no member ejected", spec.Name, policy, rep.Router.NoBackend)
		}
		// Open-loop sending: the last request goes out at its slot, so
		// the run ends one slowest answer after the horizon, not after
		// a queue of answers each sender waited out in turn.
		slowest := 0
		for _, f := range spec.Faults {
			slowest = max(slowest, f.LatencyMS)
		}
		if limit := time.Duration(spec.HorizonMS+slowest)*time.Millisecond + time.Second; time.Duration(rep.Load.WallNS) > limit {
			t.Errorf("%s/%s: ran %s of virtual time, over horizon + slowest injected latency + 1s = %s",
				spec.Name, policy, time.Duration(rep.Load.WallNS), limit)
		}
		return rep
	}
	unserved := func(r ScenarioReport) float64 { return r.Load.Total.ShedRate + r.Load.Total.ErrRate }

	slowRR := run("scenario_slow_backend.json", "round_robin")
	slowLL := run("scenario_slow_backend.json", "least_loaded")
	cacheRR := run("scenario_cache_affinity.json", "round_robin")
	cacheAff := run("scenario_cache_affinity.json", "affinity")

	// Loose factors: these are structural gaps (routing around 500ms vs
	// waiting it out; paying a miss cost once per key vs once per key per
	// member), not timing noise.
	if ll, rr := slowLL.Load.Total.Latency.P99NS, slowRR.Load.Total.Latency.P99NS; ll >= rr/2 {
		t.Errorf("least_loaded p99 %dns not < half of round_robin p99 %dns", ll, rr)
	}
	if cacheRR.Load.Total.ShedRate <= 0 {
		t.Errorf("cache scenario never saturated round_robin (shed rate %v) — scenario lost its pressure", cacheRR.Load.Total.ShedRate)
	}
	if unserved(cacheAff) >= unserved(cacheRR)*0.7 {
		t.Errorf("affinity unserved rate %.3f not well below round_robin %.3f", unserved(cacheAff), unserved(cacheRR))
	}
	if misses(cacheAff) >= misses(cacheRR) {
		t.Errorf("affinity misses %d not below round_robin misses %d", misses(cacheAff), misses(cacheRR))
	}
}

// misses sums the members' response-cache misses.
func misses(r ScenarioReport) (n int64) {
	for _, b := range r.Backends {
		n += b.CacheMiss
	}
	return n
}

// pipeNet is an in-memory network: each listener gets an address of
// its own, and a dial hands the listener the far end of a net.Pipe. A
// goroutine waiting on it waits on a channel made inside the bubble,
// which the bubble counts as durably blocked; one waiting on a socket it
// would not.
type pipeNet struct {
	mu  sync.Mutex
	lns map[string]*pipeListener
}

func newPipeNet() *pipeNet { return &pipeNet{lns: make(map[string]*pipeListener)} }

// network serves the cluster over n; the router's transport keeps as
// many idle connections per member as its own would.
func (n *pipeNet) network() network {
	return network{listen: n.listen, dial: n.dial,
		proxy: &http.Transport{DialContext: n.dial, MaxIdleConnsPerHost: 256, DisableCompression: true}}
}

func (n *pipeNet) listen() (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := &pipeListener{
		addr:  pipeAddr(fmt.Sprintf("pipe%d:80", len(n.lns))),
		conns: make(chan net.Conn),
		done:  make(chan struct{}),
	}
	n.lns[string(l.addr)] = l
	return l, nil
}

func (n *pipeNet) dial(ctx context.Context, _, addr string) (net.Conn, error) {
	n.mu.Lock()
	l := n.lns[addr]
	n.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("pipe: dial %s: no listener", addr)
	}
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, fmt.Errorf("pipe: dial %s: %w", addr, net.ErrClosed)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

type pipeListener struct {
	addr  pipeAddr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return l.addr }

type pipeAddr string

func (pipeAddr) Network() string  { return "pipe" }
func (a pipeAddr) String() string { return string(a) }
