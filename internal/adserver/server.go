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
// Handler wraps the raw routes in the production serving stack:
// request-ID tagging, panic recovery, admission control with load
// shedding, the response cache and per-request deadlines (see
// stack.go), with an optional fault-injection hook for chaos testing
// (see internal/faultinject). Gate and Serve (lifecycle.go) cover the
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
	"repro/internal/clicks"
	"repro/internal/eventlog"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/queries"
	"repro/internal/stats"
	"repro/internal/verticals"
)

// servingModel is the adserver's click model: every position is
// examined, and an ad of quality q shown at relevance r is clicked with
// probability 0.1·q·r. Moving to clicks.DefaultModel is a behavioural
// change that regenerates the goldens.
var servingModel = clicks.Model{MainlineBias: []float64{1}, SidebarBias: []float64{1}, BaseCTR: 0.1}

// searchScratch is one request's page and its build scratch.
type searchScratch struct {
	page clicks.Page
	scr  clicks.Scratch
}

// Server is the HTTP ad front end.
type Server struct {
	p     *platform.Platform
	pages clicks.PageBuilder
	gen   *queries.Generator
	mux   *http.ServeMux
	seed  uint64
	live  []bool    // p.LiveSet(), stamped once: the snapshot is frozen
	scr   sync.Pool // *searchScratch

	// kws holds one query per keyword of every universe, form and
	// country unset; exact maps a canonical keyword phrase to its index
	// in kws, and tokens is an inverted token index into it for fuzzy
	// resolution.
	kws    []queries.Query
	exact  map[string]int32
	tokens map[string][]int32

	// events, when non-nil, receives one impression record per served
	// placement (see RecordEvents). Never on the error path: recording is
	// strictly best-effort and must not influence a response.
	events eventlog.Sink

	// instance, capacity and cache are set by Handler from its Options;
	// with inflight, the admission gate's live occupancy, they feed
	// /statz, which the cluster router polls.
	instance string
	capacity int64
	inflight atomic.Int64
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
		pages:  clicks.PageBuilder{Model: &servingModel, Auction: cfg, Platform: p},
		gen:    gen,
		seed:   seed,
		live:   p.LiveSet(),
		exact:  make(map[string]int32),
		tokens: make(map[string][]int32),
	}
	s.scr.New = func() interface{} { return &searchScratch{} }

	for vi := range verticals.All() {
		u := gen.Universe(vi)
		for _, kw := range u.Keywords {
			ref := int32(len(s.kws))
			s.kws = append(s.kws, queries.Query{VerticalIdx: vi, Vertical: u.Vertical, KeywordID: kw.ID, Cluster: kw.Cluster})
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
	// requests beyond the bound are shed with 429 + Retry-After: 1.
	// <= 0 disables admission control.
	MaxInFlight int
	// RequestTimeout is the per-request deadline for /search; the
	// handler returns a structured 504 once exceeded. <= 0 disables it.
	RequestTimeout time.Duration
	// InstanceID, when non-empty, is stamped on every /search response
	// as X-Instance and reported by /statz, so a fronting router can
	// attribute traffic per member. Cluster harnesses assign "i0","i1",…
	InstanceID string
	// CacheSize, when > 0, enables the per-instance /search response
	// cache (entries, LRU). Safe because responses are pure functions of
	// (seed, query, country); cached hits skip event recording (see
	// cache.go). 0 disables.
	CacheSize int
	// Wrap, when non-nil, wraps the /search handler — the mount point
	// for the fault-injection chaos layer (faultinject.Injector.HTTP).
	// It runs inside admission control, the cache and the deadline, so
	// injected latency holds an in-flight slot and consumes the request
	// budget, a cache hit skips it, and injected panics unwind through
	// the stack's recovery.
	Wrap func(http.Handler) http.Handler
}

// DefaultOptions is the production stack configuration.
func DefaultOptions() Options {
	return Options{MaxInFlight: 256, RequestTimeout: 2 * time.Second}
}

// Handler returns the serving stack (stack.go) over the routes New
// registers. Health and readiness probes bypass admission control and
// deadlines so they stay accurate under overload.
func (s *Server) Handler(opts Options) http.Handler {
	h := &stack{s: s, timeout: opts.RequestTimeout, search: http.HandlerFunc(s.handleSearch)}
	s.instance = opts.InstanceID
	if opts.MaxInFlight > 0 {
		h.slots = make(chan struct{}, opts.MaxInFlight)
		s.capacity = int64(opts.MaxInFlight)
	}
	if opts.CacheSize > 0 {
		s.cache = newResponseCache(opts.CacheSize)
	}
	if opts.Wrap != nil {
		h.search = opts.Wrap(h.search)
	}
	return h
}

// Resolve maps free query text to a query on one keyword with its form
// (bare / extended / reordered), mirroring the matcher's normalization.
// The country is left unset: it comes with the request, not the text.
func (s *Server) Resolve(text string) (queries.Query, bool) {
	q, ok, _ := s.resolve(context.Background(), text)
	return q, ok
}

// resolveCheckEvery bounds how many candidate comparisons run between
// context checks during fuzzy resolution.
const resolveCheckEvery = 256

// resolve is Resolve with a context: long fuzzy scans check the request
// deadline every resolveCheckEvery candidates and abort with ctx.Err().
func (s *Server) resolve(ctx context.Context, text string) (queries.Query, bool, error) {
	toks := adcopy.Tokenize(text)
	if len(toks) == 0 {
		return queries.Query{}, false, nil
	}
	key := strings.Join(toks, " ")
	if ref, ok := s.exact[key]; ok {
		q := s.kws[ref]
		q.Form = platform.FormBare
		return q, true, nil
	}
	// Extended: some keyword's token sequence appears in order within the
	// query. Try candidates sharing the rarest token.
	best, bestLen := int32(0), 0
	form := platform.FormReordered
	scanned := 0
	for _, t := range toks {
		for _, ref := range s.tokens[t] {
			if scanned++; scanned%resolveCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return queries.Query{}, false, err
				}
			}
			kq := &s.kws[ref]
			ktoks := s.gen.Universe(kq.VerticalIdx).Keywords[kq.KeywordID].Tokens
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
	if bestLen == 0 {
		return queries.Query{}, false, nil
	}
	q := s.kws[best]
	q.Form = form
	return q, true, nil
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
	h := stats.FNV1a(stats.FNV1a(stats.FNVOffset, q), "\xff")
	return stats.NewRNG(s.seed ^ stats.FNV1a(h, string(country)))
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	params := r.URL.Query()
	text := params.Get("q")
	if text == "" {
		writeError(w, http.StatusBadRequest, "missing_query", "missing q parameter", 0)
		return
	}
	country := market.Country(params.Get("country"))
	if country == "" {
		country = market.US
	}
	q, ok, err := s.resolve(ctx, text)
	if err != nil {
		s.writeTimeout(w, "resolve")
		return
	}
	if !ok {
		s.noMatch.Add(1)
		writeJSON(w, SearchResponse{Query: text, Country: string(country)})
		return
	}
	if ctx.Err() != nil {
		s.writeTimeout(w, "admission")
		return
	}
	// CountryIdx keys the sim's page cache only; the builder never reads
	// it, and a request's country need not be one the sim samples.
	q.Country = country
	scr := s.scr.Get().(*searchScratch)
	pg := &scr.page
	s.pages.Build(pg, &scr.scr, s.p.Index().Sublists(q.Vertical, country), &q, s.live)
	if ctx.Err() != nil {
		s.scr.Put(scr)
		s.writeTimeout(w, "auction")
		return
	}

	rng := s.clickRNG(text, country)
	resp := SearchResponse{
		Query:    text,
		Vertical: string(q.Vertical),
		Keyword:  s.gen.Universe(q.VerticalIdx).Keywords[q.KeywordID].Phrase,
		Form:     q.Form.String(),
		Country:  string(country),
	}
	for i, pl := range pg.Placements {
		clicked := rng.Bool(pg.CPs[i])
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
				Vertical: int32(q.VerticalIdx),
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
func (s *Server) writeTimeout(w http.ResponseWriter, stage string) {
	s.timeouts.Add(1)
	writeError(w, http.StatusGatewayTimeout, "deadline_exceeded",
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

// Statz reads the instance's counters in-process: what /statz writes.
func (s *Server) Statz() Statz {
	z := Statz{
		Instance: s.instance,
		InFlight: s.inflight.Load(),
		Capacity: s.capacity,
		Served:   s.served.Load(),
		Shed:     s.shed.Load(),
	}
	if s.cache != nil {
		z.CacheHits = s.cache.hits.Load()
		z.CacheMiss = s.cache.misses.Load()
	}
	return z
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Statz())
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
