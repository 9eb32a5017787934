// Package adserver exposes the ad platform the way Bing's serving stack
// fronts its auction: an HTTP service that accepts live search queries,
// resolves them against the keyword universes, runs the auction, rolls
// the click model, and returns the rendered ad block as JSON.
//
// The server operates over a read-only snapshot of a simulated platform
// (accounts frozen, index immutable), so request handling is lock-free
// and safe for arbitrary concurrency; per-request eligibility and auction
// scratch comes from a sync.Pool. Click rolls are a pure function of
// (server seed, query, country), so identical requests produce identical
// responses regardless of request order or concurrency — the property
// the golden response snapshot pins.
//
// Handler composes the production resilience stack around the raw
// routes: request-ID tagging, panic recovery, admission control with
// load shedding, and per-request deadlines (see middleware.go), with an
// optional fault-injection hook for chaos testing (see
// internal/faultinject). Gate and Serve (lifecycle.go) cover the
// process lifecycle: health/readiness during bootstrap and draining
// shutdown.
package adserver

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adcopy"
	"repro/internal/auction"
	"repro/internal/eventlog"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/queries"
	"repro/internal/stats"
	"repro/internal/verticals"
)

// kwRef locates one keyword in one vertical's universe.
type kwRef struct {
	verticalIdx int
	vertical    verticals.Vertical
	keywordID   int
	cluster     int
}

// searchScratch is one request's reusable eligibility and auction storage.
type searchScratch struct {
	eligible []platform.BidRef
	auction  auction.Scratch
}

// Server is the HTTP ad front end.
type Server struct {
	p    *platform.Platform
	cfg  auction.Config
	gen  *queries.Generator
	mux  *http.ServeMux
	seed uint64
	live []bool    // p.LiveSet(), stamped once: the snapshot is frozen
	scr  sync.Pool // *searchScratch

	// exact maps a canonical keyword phrase to its reference; tokens is
	// an inverted token index for fuzzy resolution.
	exact  map[string]kwRef
	tokens map[string][]kwRef

	// events, when non-nil, receives one impression record per served
	// placement (see RecordEvents). Never on the error path: recording is
	// strictly best-effort and must not influence a response.
	events eventlog.Sink

	// instance/inflight/cache are set by Handler from its Options; they
	// feed /statz and the X-Instance / X-Inflight response headers the
	// cluster router consumes.
	instance string
	inflight *InFlightGauge
	cache    *responseCache

	served   atomic.Int64
	clicks   atomic.Int64
	noMatch  atomic.Int64
	shed     atomic.Int64
	panics   atomic.Int64
	timeouts atomic.Int64
}

// New builds a server over a frozen platform snapshot. The query
// generator supplies the keyword universes used for query resolution.
func New(p *platform.Platform, gen *queries.Generator, cfg auction.Config, seed uint64) *Server {
	s := &Server{
		p:      p,
		cfg:    cfg,
		gen:    gen,
		seed:   seed,
		live:   p.LiveSet(),
		exact:  make(map[string]kwRef),
		tokens: make(map[string][]kwRef),
	}
	s.scr.New = func() interface{} { return &searchScratch{} }

	for vi := range verticals.All() {
		u := gen.Universe(vi)
		for _, kw := range u.Keywords {
			ref := kwRef{verticalIdx: vi, vertical: u.Vertical, keywordID: kw.ID, cluster: kw.Cluster}
			key := strings.Join(kw.Tokens, " ")
			if _, dup := s.exact[key]; !dup {
				s.exact[key] = ref
			}
			for _, t := range kw.Tokens {
				// Cap inverted lists: common tokens would otherwise
				// explode; resolution only needs a few candidates.
				if len(s.tokens[t]) < 64 {
					s.tokens[t] = append(s.tokens[t], ref)
				}
			}
		}
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/search", s.handleSearch)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/statz", s.handleStatz)
	return s
}

// RecordEvents attaches an impression-record sink. The sink must be
// safe for concurrent Append (requests are served in parallel; wrap a
// file-backed eventlog.Writer in eventlog.NewAsync) and must absorb its
// own failures — the server never checks it, so a degraded sink costs
// recording, never serving. Call before the server starts handling
// traffic; nil disables recording.
func (s *Server) RecordEvents(sink eventlog.Sink) { s.events = sink }

// ServeHTTP implements http.Handler with the bare routes (no resilience
// stack); production callers should mount Handler instead.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Options configures the resilience stack Handler builds around the
// serving routes.
type Options struct {
	// MaxInFlight bounds concurrently-running /search requests;
	// requests beyond the bound are shed with 429 + Retry-After.
	// <= 0 disables admission control.
	MaxInFlight int
	// RequestTimeout is the per-request deadline for /search; the
	// handler returns a structured 504 once exceeded. <= 0 disables it.
	RequestTimeout time.Duration
	// RetryAfter is the backoff hint on shed responses (rounded up to
	// whole seconds for the header). Defaults to 1s when zero.
	RetryAfter time.Duration
	// InstanceID, when non-empty, is stamped on every /search response
	// as X-Instance and reported by /statz, so a fronting router can
	// attribute traffic per member. Cluster harnesses assign "i0","i1",…
	InstanceID string
	// CacheSize, when > 0, enables the per-instance /search response
	// cache (entries, LRU). Safe because responses are pure functions of
	// (seed, query, country); cached hits skip event recording (see
	// cache.go). 0 disables.
	CacheSize int
	// Wrap, when non-nil, wraps each route's handler — the mount point
	// for the fault-injection chaos layer in test builds. It is applied
	// inside admission control and the deadline, so injected latency
	// holds an in-flight slot and consumes the request budget, and
	// injected panics unwind through the recovery middleware.
	Wrap func(route string, h http.Handler) http.Handler
}

// DefaultOptions is the production stack configuration.
func DefaultOptions() Options {
	return Options{MaxInFlight: 256, RequestTimeout: 2 * time.Second, RetryAfter: time.Second}
}

// Handler composes the resilience middleware stack around the serving
// routes. Health and readiness probes bypass admission control and
// deadlines so they stay accurate under overload.
func (s *Server) Handler(opts Options) http.Handler {
	wrap := opts.Wrap
	if wrap == nil {
		wrap = func(_ string, h http.Handler) http.Handler { return h }
	}
	retryAfter := opts.RetryAfter
	if retryAfter <= 0 {
		retryAfter = time.Second
	}

	s.instance = opts.InstanceID
	var searchMW []Middleware
	if opts.MaxInFlight > 0 {
		s.inflight = &InFlightGauge{}
		searchMW = append(searchMW, InstanceHeaders(opts.InstanceID, s.inflight))
		searchMW = append(searchMW, Admission(opts.MaxInFlight, retryAfter, func() { s.shed.Add(1) }, s.inflight))
	} else if opts.InstanceID != "" {
		searchMW = append(searchMW, InstanceHeaders(opts.InstanceID, nil))
	}
	if opts.CacheSize > 0 {
		// Inside admission, outside the deadline and the fault-injection
		// wrap: a cached hit avoids whatever latency/cost the wrap models,
		// and it cannot run late, so it arms no timer either.
		s.cache = newResponseCache(opts.CacheSize)
		searchMW = append(searchMW, Cache(s.cache))
	}
	if opts.RequestTimeout > 0 {
		searchMW = append(searchMW, Deadline(opts.RequestTimeout))
	}

	m := http.NewServeMux()
	m.Handle("/search", Chain(wrap("/search", http.HandlerFunc(s.handleSearch)), searchMW...))
	m.Handle("/stats", wrap("/stats", http.HandlerFunc(s.handleStats)))
	m.HandleFunc("/healthz", s.handleHealth)
	m.HandleFunc("/readyz", s.handleReady)
	m.HandleFunc("/statz", s.handleStatz)

	return Chain(m, RequestID(), Recover(func(interface{}) { s.panics.Add(1) }))
}

// Resolve maps free query text to a keyword reference and the query form
// (bare / extended / reordered), mirroring the matcher's normalization.
func (s *Server) Resolve(q string) (kwRef, platform.QueryForm, bool) {
	ref, form, ok, _ := s.resolve(context.Background(), q)
	return ref, form, ok
}

// resolveCheckEvery bounds how many candidate comparisons run between
// context checks during fuzzy resolution.
const resolveCheckEvery = 256

// resolve is Resolve with a context: long fuzzy scans check the request
// deadline every resolveCheckEvery candidates and abort with ctx.Err().
func (s *Server) resolve(ctx context.Context, q string) (kwRef, platform.QueryForm, bool, error) {
	toks := adcopy.Tokenize(q)
	if len(toks) == 0 {
		return kwRef{}, 0, false, nil
	}
	key := strings.Join(toks, " ")
	if ref, ok := s.exact[key]; ok {
		return ref, platform.FormBare, true, nil
	}
	// Extended: some keyword's token sequence appears in order within the
	// query. Try candidates sharing the rarest token.
	best, bestLen := kwRef{}, 0
	form := platform.FormReordered
	scanned := 0
	for _, t := range toks {
		for _, ref := range s.tokens[t] {
			if scanned++; scanned%resolveCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return kwRef{}, 0, false, err
				}
			}
			ktoks := s.gen.Universe(ref.verticalIdx).Keywords[ref.keywordID].Tokens
			if len(ktoks) <= bestLen {
				continue
			}
			if containsInOrder(toks, ktoks) {
				best, bestLen, form = ref, len(ktoks), platform.FormExtended
			} else if form != platform.FormExtended && containsAll(toks, ktoks) {
				best, bestLen, form = ref, len(ktoks), platform.FormReordered
			}
		}
	}
	if bestLen > 0 {
		return best, form, true, nil
	}
	return kwRef{}, 0, false, nil
}

// containsInOrder reports whether needle appears as a contiguous
// subsequence of hay.
func containsInOrder(hay, needle []string) bool {
	if len(needle) == 0 || len(needle) > len(hay) {
		return false
	}
outer:
	for i := 0; i+len(needle) <= len(hay); i++ {
		for j, n := range needle {
			if hay[i+j] != n {
				continue outer
			}
		}
		return true
	}
	return false
}

// containsAll reports whether every needle token occurs somewhere in hay.
func containsAll(hay, needle []string) bool {
	if len(needle) == 0 {
		return false
	}
	set := make(map[string]bool, len(hay))
	for _, h := range hay {
		set[h] = true
	}
	for _, n := range needle {
		if !set[n] {
			return false
		}
	}
	return true
}

// AdResponse is one served ad in the JSON reply.
type AdResponse struct {
	Position   int     `json:"position"`
	Mainline   bool    `json:"mainline"`
	Advertiser int32   `json:"advertiser"`
	Title      string  `json:"title,omitempty"`
	Body       string  `json:"body,omitempty"`
	DisplayURL string  `json:"displayUrl"`
	MatchType  string  `json:"matchType"`
	CPC        float64 `json:"cpc"`
	Clicked    bool    `json:"clicked"`
}

// SearchResponse is the /search reply.
type SearchResponse struct {
	Query    string       `json:"query"`
	Vertical string       `json:"vertical"`
	Keyword  string       `json:"keyword"`
	Form     string       `json:"form"`
	Country  string       `json:"country"`
	Ads      []AdResponse `json:"ads"`
}

// clickRNG derives the per-request click-roll generator. The stream is a
// pure function of (server seed, query text, country): identical
// requests always roll identical clicks, making responses
// order-insensitive and golden-pinnable under arbitrary concurrency.
func (s *Server) clickRNG(q string, country market.Country) *stats.RNG {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(q); i++ {
		h ^= uint64(q[i])
		h *= 1099511628211
	}
	h ^= uint64(0xff)
	h *= 1099511628211
	for i := 0; i < len(country); i++ {
		h ^= uint64(country[i])
		h *= 1099511628211
	}
	return stats.NewRNG(s.seed ^ h)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	params := r.URL.Query()
	q := params.Get("q")
	if q == "" {
		writeError(w, r, http.StatusBadRequest, "missing_query", "missing q parameter", 0)
		return
	}
	country := market.Country(params.Get("country"))
	if country == "" {
		country = market.US
	}
	ref, form, ok, err := s.resolve(ctx, q)
	if err != nil {
		s.writeTimeout(w, r, "resolve")
		return
	}
	if !ok {
		s.noMatch.Add(1)
		writeJSON(w, SearchResponse{Query: q, Country: string(country)})
		return
	}
	if ctx.Err() != nil {
		s.writeTimeout(w, r, "admission")
		return
	}
	scr := s.scr.Get().(*searchScratch)
	scr.eligible = s.p.Index().Sublists(ref.vertical, country).
		EligibleAppendLive(scr.eligible[:0], ref.keywordID, ref.cluster, form, s.live)
	res := auction.RunInto(s.cfg, scr.eligible, form, &scr.auction)
	if ctx.Err() != nil {
		s.scr.Put(scr)
		s.writeTimeout(w, r, "auction")
		return
	}

	rng := s.clickRNG(q, country)
	resp := SearchResponse{
		Query:    q,
		Vertical: string(ref.vertical),
		Keyword:  s.gen.Universe(ref.verticalIdx).Keywords[ref.keywordID].Phrase,
		Form:     form.String(),
		Country:  string(country),
	}
	for _, pl := range res.Placements {
		clicked := rng.Bool(0.1 * pl.Ref.Ad.Quality * pl.Relevance)
		if clicked {
			s.clicks.Add(1)
		}
		if s.events != nil {
			// Day 0 is the serving epoch: the snapshot is frozen, so live
			// impressions have no simulated day. Fraud ground truth is a
			// simulator-side label; serving-side records carry only what a
			// real front end would log.
			var flags uint8
			if clicked {
				flags |= eventlog.FlagClicked
			}
			amount := 0.0
			if clicked {
				amount = pl.Price
			}
			s.events.Append(eventlog.Event{
				Type:     eventlog.TypeImpression,
				Account:  int32(pl.Ref.Ad.Account),
				Vertical: int32(ref.verticalIdx),
				Country:  string(country),
				Position: int32(pl.Position),
				Match:    uint8(pl.Ref.Bid.Match),
				Flags:    flags,
				Amount:   amount,
			})
		}
		resp.Ads = append(resp.Ads, AdResponse{
			Position:   pl.Position,
			Mainline:   pl.Mainline,
			Advertiser: int32(pl.Ref.Ad.Account),
			Title:      pl.Ref.Ad.Creative.Title,
			Body:       pl.Ref.Ad.Creative.Body,
			DisplayURL: pl.Ref.Ad.Creative.DisplayURL,
			MatchType:  pl.Ref.Bid.Match.String(),
			CPC:        pl.Price,
			Clicked:    clicked,
		})
	}
	s.scr.Put(scr)
	s.served.Add(1)
	writeJSON(w, resp)
}

// writeTimeout records and reports an exhausted per-request deadline.
func (s *Server) writeTimeout(w http.ResponseWriter, r *http.Request, stage string) {
	s.timeouts.Add(1)
	writeError(w, r, http.StatusGatewayTimeout, "deadline_exceeded",
		fmt.Sprintf("request deadline exceeded during %s", stage), 0)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleReady reports readiness for a standalone server: once the Server
// exists its platform snapshot is frozen and serveable, so this is
// always ready. During bootstrap and draining the Gate intercepts
// /readyz before it reaches here (see lifecycle.go).
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]string{"status": "ready"})
}

// Stats is the /stats reply.
type Stats struct {
	Served    int64 `json:"served"`
	Clicks    int64 `json:"clicks"`
	NoMatch   int64 `json:"noMatch"`
	Shed      int64 `json:"shed"`
	Panics    int64 `json:"panics"`
	Timeouts  int64 `json:"timeouts"`
	Accounts  int   `json:"accounts"`
	LiveAds   int   `json:"liveAds"`
	IndexBids int   `json:"indexBids"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, Stats{
		Served:    s.served.Load(),
		Clicks:    s.clicks.Load(),
		NoMatch:   s.noMatch.Load(),
		Shed:      s.shed.Load(),
		Panics:    s.panics.Load(),
		Timeouts:  s.timeouts.Load(),
		Accounts:  s.p.NumAccounts(),
		LiveAds:   s.p.LiveAds(),
		IndexBids: s.p.Index().Len(),
	})
}

// Statz is the /statz reply: the cheap admission-gauge probe the
// cluster router polls for least-loaded routing. Unlike /stats it
// carries no platform aggregates — just identity and live occupancy —
// so polling it every few hundred milliseconds is free.
type Statz struct {
	Instance  string `json:"instance"`
	InFlight  int64  `json:"inflight"`
	Capacity  int64  `json:"capacity"`
	Served    int64  `json:"served"`
	Shed      int64  `json:"shed"`
	CacheHits int64  `json:"cacheHits"`
	CacheMiss int64  `json:"cacheMisses"`
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	z := Statz{
		Instance: s.instance,
		InFlight: s.inflight.Load(),
		Capacity: s.inflight.Capacity(),
		Served:   s.served.Load(),
		Shed:     s.shed.Load(),
	}
	if s.cache != nil {
		z.CacheHits = s.cache.hits.Load()
		z.CacheMiss = s.cache.misses.Load()
	}
	writeJSON(w, z)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	writeJSONBody(w, v)
}

// writeJSONBody encodes v without touching headers, for callers that
// have already set a non-200 status.
func writeJSONBody(w http.ResponseWriter, v interface{}) {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Connection-level failure; nothing sensible to do but record it
		// in the response state (headers are already out).
		_ = err
	}
}

// String summarizes the server for logs.
func (s *Server) String() string {
	return fmt.Sprintf("adserver(accounts=%d liveAds=%d)", s.p.NumAccounts(), s.p.LiveAds())
}
