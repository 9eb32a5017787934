package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adserver"
	"repro/internal/auction"
	"repro/internal/loadgen"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/stats"
)

// searchSpec is what differs between the two request-path workloads.
type searchSpec struct {
	classes   []loadgen.Class
	cacheSize int
	policy    func() router.Policy
}

var searchMixed = searchSpec{
	classes: []loadgen.Class{
		{Name: "head", Weight: 0.50, Kind: "head"},
		{Name: "extended", Weight: 0.20, Kind: "extended"},
		{Name: "tail", Weight: 0.25, Kind: "tail"},
		{Name: "nomatch", Weight: 0.05, Kind: "nomatch"},
	},
	policy: func() router.Policy { return router.NewRoundRobin() },
}

var searchHot = searchSpec{
	classes:   []loadgen.Class{{Name: "head", Weight: 1, Kind: "head", TopK: 50}},
	cacheSize: 4096,
	policy:    func() router.Policy { return router.Affinity{} },
}

const (
	instances   = 2
	streamLen   = 8192 // requests in the generated stream; clients cycle through it
	sampleEvery = 64   // 1 request in 64 is re-served in process and compared; traced, also recorded as a span
	// searchTailP is the tail percentile of a lat window. p99 of a
	// 100-microsecond request on a shared two-core sandbox is the
	// hypervisor's steal, not the program: over ten-run baselines its
	// spread reached 51 %, so it is demoted to the per-layer search.p99_us
	// (and printed), and the gated tail is p95.
	searchTailP = 0.95
	// searchWindow is the nominal length of one lat or sat window.
	searchWindow = 500 * time.Millisecond
)

// stack is a routed adserver cluster on loopback plus the request
// stream the load generator fires at it.
type stack struct {
	https    []*http.Server // the instances', then the router's
	direct   []string       // instance base URLs
	rt       *router.Router
	routed   string           // router base URL
	ref      *adserver.Server // bare server over the same world: the in-process reference
	opts     adserver.Options
	boot     *sim.Sim
	res      *sim.Result
	paths    []string // "/search?q=...&country=..." per stream entry
	queries  []string
	client   *http.Client
	next     atomic.Int64 // position in the stream, shared by every phase
	buildS   float64
	warmFail int64
}

func (st *stack) close() {
	for _, hs := range st.https {
		hs.Close()
	}
	if st.rt != nil {
		st.rt.Close()
	}
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
	// The router proxies through http.DefaultTransport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) // returns when hs.Close closes the listener
	return hs, "http://" + ln.Addr().String(), nil
}

// newStack bootstraps the world, boots the instances and the router,
// generates the request stream from the seed, and sends the stream
// through once as warm-up (connections open, caches filled).
func newStack(r *run, spec searchSpec) (*stack, error) {
	st := &stack{}
	cfg := bootstrapConfig(r)
	st.boot = sim.New(cfg)
	st.res = st.boot.Run()

	st.opts = adserver.DefaultOptions()
	st.opts.CacheSize = spec.cacheSize
	rt, err := router.New(router.Options{Policy: spec.policy(), Seed: r.seed})
	if err != nil {
		return nil, err
	}
	st.rt = rt
	for i := 0; i < instances; i++ {
		srv := adserver.New(st.res.Platform, st.boot.Queries(), auction.DefaultConfig(), r.seed)
		opts := st.opts
		opts.InstanceID = fmt.Sprintf("i%d", i)
		hs, base, err := serve(srv.Handler(opts))
		if err != nil {
			st.close()
			return nil, err
		}
		st.https = append(st.https, hs)
		st.direct = append(st.direct, base)
		if _, err := rt.AddNamedBackend(opts.InstanceID, base); err != nil {
			st.close()
			return nil, err
		}
	}
	rt.StartHealth()
	rhs, base, err := serve(rt)
	if err != nil {
		st.close()
		return nil, err
	}
	st.https = append(st.https, rhs)
	st.routed = base
	st.ref = adserver.New(st.res.Platform, st.boot.Queries(), auction.DefaultConfig(), r.seed)

	b0 := time.Now()
	n := streamLen
	if r.tiny {
		n = 256
	}
	// The schedule only fixes the stream's length and order here: the
	// closed-loop phases ignore the offsets, the open-loop ladder draws
	// its own.
	sched := loadgen.Schedule(loadgen.Poisson{Rate: 1000}, r.seed^0xa5a5a5a5a5a5a5a5, time.Hour, n)
	reqs := loadgen.BuildRequests(st.boot.Queries(), spec.classes, sched, r.seed^0x5a5a5a5a5a5a5a5a)
	for _, rq := range reqs {
		st.paths = append(st.paths, fmt.Sprintf("/search?q=%s&country=%s", url.QueryEscape(rq.Query), rq.Country))
		st.queries = append(st.queries, rq.Query)
	}
	st.buildS = time.Since(b0).Seconds()

	st.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU(), DisableCompression: true},
		Timeout:   5 * time.Second,
	}
	warm := st.closed(st.routed, runtime.NumCPU(), 0, len(st.paths), nil, 0)
	st.warmFail = warm.failed
	return st, nil
}

// sampled is one response kept for the byte-equality check.
type sampled struct {
	idx  int
	body []byte
}

// phase is what one load phase measured.
type phase struct {
	latUS   []float64
	ok      int64
	failed  int64
	wall    time.Duration
	samples []sampled
}

func (p *phase) merge(q phase) {
	p.latUS = append(p.latUS, q.latUS...)
	p.ok += q.ok
	p.failed += q.failed
	p.samples = append(p.samples, q.samples...)
}

// closed runs `clients` closed-loop clients against base: each sends
// its next request only when the previous reply has been read in full.
// The phase ends after d, or — when limit > 0 — after limit requests.
// A reply counts as OK when it is a 200 with a body.
func (st *stack) closed(base string, clients int, d time.Duration, limit int, tr *tracer, parent int) phase {
	var wg sync.WaitGroup
	parts := make([]phase, clients)
	start := time.Now()
	var sent atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				if limit > 0 {
					if sent.Add(1) > int64(limit) {
						return
					}
				} else if time.Since(start) >= d {
					return
				}
				i := int(st.next.Add(1)-1) % len(st.paths)
				t0 := time.Now()
				ok := st.get(base+st.paths[i], &buf)
				lat := time.Since(t0)
				if !ok {
					p.failed++
					continue
				}
				p.ok++
				p.latUS = append(p.latUS, float64(lat)/1e3)
				if i%sampleEvery == 0 {
					p.samples = append(p.samples, sampled{i, append([]byte(nil), buf.Bytes()...)})
					tr.add(parent, "request", t0, lat, int64(i))
				}
			}
		}(&parts[c])
	}
	wg.Wait()
	out := phase{wall: time.Since(start)}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// get fetches u into buf and reports whether it was a 200 with a body.
func (st *stack) get(u string, buf *bytes.Buffer) bool {
	resp, err := st.client.Get(u)
	if err != nil {
		return false
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK && buf.Len() > 0
}

// nullWriter is the cheapest http.ResponseWriter: in-process timings
// should see the handler, not a recorder.
type nullWriter struct {
	h      http.Header
	status int
	body   *bytes.Buffer // nil = discard
}

func (w *nullWriter) Header() http.Header { return w.h }
func (w *nullWriter) WriteHeader(s int)   { w.status = s }
func (w *nullWriter) Write(p []byte) (int, error) {
	if w.body != nil {
		w.body.Write(p)
	}
	return len(p), nil
}

// inProcess serves path on h without a network and returns the body.
func inProcess(h http.Handler, path string) (status int, body []byte) {
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		return 0, nil
	}
	w := &nullWriter{h: http.Header{}, status: http.StatusOK, body: &bytes.Buffer{}}
	h.ServeHTTP(w, req)
	return w.status, w.body.Bytes()
}

// verify re-serves every sampled request in process on the bare
// reference server: the routed reply must be byte-equal and decodable.
func (st *stack) verify(r *run, p phase) {
	r.count(p.ok+p.failed, p.failed)
	for _, s := range p.samples {
		status, want := inProcess(st.ref, st.paths[s.idx])
		var sr adserver.SearchResponse
		err := json.Unmarshal(s.body, &sr)
		r.check(status == http.StatusOK && bytes.Equal(want, s.body) && err == nil,
			"request %d (%s): routed body differs from the in-process one (decode: %v)", s.idx, st.paths[s.idx], err)
	}
}

// counters is a snapshot of what the instances and the router count.
type counters struct {
	stats  adserver.Stats // summed over instances
	hits   int64
	misses int64
	router router.Stats
}

func (st *stack) fetch(u string, v interface{}) error {
	resp, err := st.client.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s: status %d", u, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// snapshot reads /stats and /statz of every instance, as an operator
// would, and the router's Stats.
func (st *stack) snapshot() (counters, error) {
	var c counters
	for _, base := range st.direct {
		var s adserver.Stats
		var z adserver.Statz
		if err := st.fetch(base+"/stats", &s); err != nil {
			return c, err
		}
		if err := st.fetch(base+"/statz", &z); err != nil {
			return c, err
		}
		c.stats.Served += s.Served
		c.stats.NoMatch += s.NoMatch
		c.stats.Shed += s.Shed
		c.stats.Timeouts += s.Timeouts
		c.stats.Panics += s.Panics
		c.hits += z.CacheHits
		c.misses += z.CacheMiss
	}
	c.router = st.rt.Stats()
	return c, nil
}

func runSearch(r *run, root int, spec searchSpec) error {
	var st *stack
	err := r.setup(func() error {
		var err error
		st, err = newStack(r, spec)
		return err
	}, func() { st.close() })
	if err != nil {
		return err
	}
	defer st.close()
	r.check(st.warmFail == 0, "%d warm-up requests failed", st.warmFail)
	before, err := st.snapshot()
	if err != nil {
		return err
	}
	nproc := runtime.NumCPU()

	// Rounds of one lat window (one closed client: latency) and one sat
	// window (nproc closed clients: throughput). Interleaving them spreads
	// both over the whole run, so a burst of host noise lands on some
	// windows of each, and every figure is the best decile over the
	// windows (see best), which the quiet ones decide. A window spans two
	// to three collections of the instances' heap, so no window is free of
	// the collector. In the traced run odd rounds record spans and even
	// ones do not, and the difference between their sat rates is the
	// tracing overhead; the rounds take half the measured time there (the
	// probes and the ladder have to fit in).
	budget := r.seconds
	if r.traced {
		budget /= 2
	}
	rounds := max(2, int(budget/(2*searchWindow)))
	win := budget / time.Duration(2*rounds)
	var p50, tail, p99, rps, plainRPS, tracedRPS, pooled []float64
	for i := 0; i < rounds; i++ {
		var tr *tracer
		if r.traced && i%2 == 1 {
			tr = r.tr
		}
		id := tr.begin(root, "lat")
		lat := st.closed(st.routed, 1, win, 0, tr, id)
		tr.end(id, lat.ok)
		st.verify(r, lat)
		p50 = append(p50, stats.Quantile(lat.latUS, 0.5))
		tail = append(tail, stats.Quantile(lat.latUS, searchTailP))
		p99 = append(p99, stats.Quantile(lat.latUS, 0.99))
		pooled = append(pooled, lat.latUS...)

		id = tr.begin(root, "sat")
		sat := st.closed(st.routed, nproc, win, 0, tr, id)
		tr.end(id, sat.ok)
		st.verify(r, sat)
		rate := float64(sat.ok) / sat.wall.Seconds()
		rps = append(rps, rate)
		if tr != nil {
			tracedRPS = append(tracedRPS, rate)
		} else {
			plainRPS = append(plainRPS, rate)
		}
	}
	r.set("ops_per_s", best(rps, false))
	r.set("op_p50_us", best(p50, true))
	r.set("op_tail_us", best(tail, true))
	r.logf("%s: %d rounds of %v lat + %v sat; lat %d samples, about %d beyond p%g in each window; p50 %.0f us (best decile of windows) and %.0f us (median window), p99 %.0f us (best decile), p99.9 %.0f us (pooled); sat windows %.0f req/s",
		r.workload, rounds, win, win, len(pooled), beyond(len(pooled)/rounds, searchTailP), searchTailP*100, best(p50, true), stats.Median(p50), best(p99, true), stats.Quantile(pooled, 0.999), rps)
	after, err := st.snapshot()
	if err != nil {
		return err
	}
	r.check(after.stats.Shed == 0 && after.stats.Timeouts == 0 && after.stats.Panics == 0,
		"adserver shed %d, timed out %d, panicked %d", after.stats.Shed, after.stats.Timeouts, after.stats.Panics)
	r.check(after.router.Sheds == 0 && after.router.NoBackend == 0,
		"router shed %d, had no backend %d times", after.router.Sheds, after.router.NoBackend)
	if !r.traced {
		return nil
	}
	r.set("trace_overhead_share", best(plainRPS, false)/best(tracedRPS, false)-1)
	r.set("search.p99_us", best(p99, true))
	if err := searchLayers(r, root, st, before, after, best(p50, true)); err != nil {
		return err
	}
	ladder(r, root, st)
	return nil
}

// searchLayers sets the adserver.*, router.* and net.* metrics: counter
// deltas over the measured phases, in-process handler timings over the
// workload's stream, and a direct (router-less) loopback p50.
func searchLayers(r *run, root int, st *stack, before, after counters, routedP50 float64) error {
	served := after.stats.Served - before.stats.Served
	nomatch := after.stats.NoMatch - before.stats.NoMatch
	hits, misses := after.hits-before.hits, after.misses-before.misses
	r.set("adserver.cache_hit_share", ratio(float64(hits), float64(hits+misses)))
	r.set("adserver.nomatch_share", ratio(float64(nomatch), float64(served+nomatch+hits)))
	r.set("adserver.shed", float64(after.stats.Shed))
	r.set("adserver.timeouts", float64(after.stats.Timeouts))
	r.set("adserver.panics", float64(after.stats.Panics))
	rs := after.router
	r.set("router.retried", float64(rs.Retried))
	r.set("router.masked", float64(rs.Masked))
	r.set("router.no_backend", float64(rs.NoBackend))
	r.set("router.sheds", float64(rs.Sheds))
	lo, hi := ^uint64(0), uint64(0)
	for i, b := range rs.Backends {
		d := b.Served - before.router.Backends[i].Served
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	r.set("router.balance", ratio(float64(lo), float64(hi)))

	// In process: the bare handler, the production stack around it (a
	// third server, because Handler configures the Server it is called
	// on; one warm pass first so the cache state is the workload's), and
	// query resolution alone.
	id := r.tr.begin(root, "probe/inprocess")
	probe := adserver.New(st.res.Platform, st.boot.Queries(), auction.DefaultConfig(), r.seed)
	opts := st.opts
	opts.InstanceID = "probe"
	full := probe.Handler(opts)
	reqs := make([]*http.Request, len(st.paths))
	for i, p := range st.paths {
		req, err := http.NewRequest(http.MethodGet, p, nil)
		if err != nil {
			return err
		}
		reqs[i] = req
	}
	timeHandler := func(h http.Handler) float64 {
		w := &nullWriter{h: http.Header{}}
		t0 := time.Now()
		for _, req := range reqs {
			h.ServeHTTP(w, req)
		}
		return float64(time.Since(t0)) / 1e3 / float64(len(reqs))
	}
	timeHandler(full)
	handle, stackUS := timeHandler(st.ref), timeHandler(full)
	t0 := time.Now()
	for _, q := range st.queries {
		st.ref.Resolve(q)
	}
	resolve := float64(time.Since(t0)) / 1e3 / float64(len(st.queries))
	r.tr.end(id, int64(len(reqs)))
	r.set("adserver.handle_us", handle)
	r.set("adserver.stack_us", stackUS)
	r.set("adserver.middleware_us", stackUS-handle)
	r.set("adserver.resolve_us", resolve)

	id = r.tr.begin(root, "probe/direct")
	direct := st.closed(st.direct[0], 1, r.seconds/8, 0, nil, 0)
	r.tr.end(id, direct.ok)
	st.verify(r, direct)
	// One client, so the samples are in time order: windows of about a
	// quarter of a second, read like the routed ones.
	directP50 := best(windowed(direct.latUS, 2048, stats.Median), true)
	r.set("adserver.direct_p50_us", directP50)
	r.set("router.hop_p50_us", routedP50-directP50)
	r.set("net.loopback_us", directP50-stackUS)
	r.set("loadgen.build_s", st.buildS)
	r.set("loadgen.requests", float64(len(st.paths)))
	return nil
}

// Open-loop acceptance: a rate is sustained when no request fails, the
// from-due p99 is within openLimit, and the generator's lateness does
// not grow from the first half of the rung to the second (beyond
// lateFloor, below which the ratio is timer noise).
const (
	openLimit = 50 * time.Millisecond
	lateFloor = time.Millisecond
)

// ladder runs the open-loop rungs: Poisson arrivals at a fixed rate
// from at most nproc senders, every request timed from when it was due
// so that a stall counts against the requests queued behind it, with
// the generator's own lateness beside it.
func ladder(r *run, root int, st *stack) {
	senders := runtime.NumCPU()
	d := r.seconds / 8
	maxRate := 0
	for _, rate := range ladderRates {
		sched := loadgen.Schedule(loadgen.Poisson{Rate: float64(rate)}, r.seed^uint64(rate), d, 0)
		shares := loadgen.SplitSchedule(sched, senders)
		type sent struct{ dueUS, fromDueUS, lateUS float64 }
		parts := make([][]sent, senders)
		var failed atomic.Int64
		id := r.tr.begin(root, fmt.Sprintf("open/%d", rate))
		start := time.Now()
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				var buf bytes.Buffer
				for _, due := range shares[s] {
					if wait := due - time.Since(start); wait > 0 {
						time.Sleep(wait)
					}
					late := time.Since(start) - due
					i := int(st.next.Add(1)-1) % len(st.paths)
					if !st.get(st.routed+st.paths[i], &buf) {
						failed.Add(1)
						continue
					}
					fromDue := time.Since(start) - due
					parts[s] = append(parts[s], sent{float64(due) / 1e3, float64(fromDue) / 1e3, float64(late) / 1e3})
				}
			}(s)
		}
		wg.Wait()
		r.tr.end(id, int64(len(sched)))
		r.count(int64(len(sched)), failed.Load())

		var fromDue, late, lateFirst, lateSecond []float64
		for _, p := range parts {
			for _, x := range p {
				fromDue = append(fromDue, x.fromDueUS)
				late = append(late, x.lateUS)
				if x.dueUS < float64(d)/2e3 {
					lateFirst = append(lateFirst, x.lateUS)
				} else {
					lateSecond = append(lateSecond, x.lateUS)
				}
			}
		}
		p99 := stats.Quantile(fromDue, 0.99)
		r.set(fmt.Sprintf("loadgen.open_%d_p50_us", rate), stats.Median(fromDue))
		r.set(fmt.Sprintf("loadgen.open_%d_p99_us", rate), p99)
		r.set(fmt.Sprintf("loadgen.late_%d_p99_us", rate), stats.Quantile(late, 0.99))
		first, second := stats.Mean(lateFirst), stats.Mean(lateSecond)
		steady := second <= 1.5*first || second <= float64(lateFloor)/1e3
		if failed.Load() == 0 && p99 <= float64(openLimit)/1e3 && steady {
			maxRate = rate
		}
	}
	r.set("loadgen.open_max_rate", float64(maxRate))
}
