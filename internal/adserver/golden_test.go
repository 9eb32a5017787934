package adserver

// Golden snapshot of the adserver HTTP surface: a frozen small-scale
// platform fixture served a fixed query list, with every response
// (status, request ID, JSON body) pinned byte-for-byte via
// internal/testutil. Click rolls are a pure function of (seed, query,
// country) and request IDs are sequential per handler, so sequential
// replay is exactly reproducible. Regenerate deliberately with
// `make golden` after an intentional serving-behavior change.

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/auction"
	"repro/internal/clicks"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// goldenQueries exercises every resolution outcome: bare, extended,
// reordered, no-match, untargeted market, missing parameter, and the
// stats counters after all of the above.
var goldenQueries = []struct {
	Name string `json:"name"`
	Path string `json:"path"`
}{
	{"bare", "/search?q=" + url.QueryEscape("free download") + "&country=US"},
	{"extended", "/search?q=" + url.QueryEscape("best free download now") + "&country=US"},
	{"reordered", "/search?q=" + url.QueryEscape("download totally free") + "&country=US"},
	{"no-match", "/search?q=" + url.QueryEscape("zzz qqq xxx") + "&country=US"},
	{"wrong-market", "/search?q=" + url.QueryEscape("free download") + "&country=DE"},
	{"missing-q", "/search"},
	{"repeat-bare", "/search?q=" + url.QueryEscape("free download") + "&country=US"},
	{"healthz", "/healthz"},
	{"readyz", "/readyz"},
	{"stats", "/stats"},
}

type goldenExchange struct {
	Name      string          `json:"name"`
	Path      string          `json:"path"`
	Status    int             `json:"status"`
	RequestID string          `json:"requestId"`
	Body      json.RawMessage `json:"body"`
}

func TestGoldenHTTPResponses(t *testing.T) {
	s, _ := serverFixture(t)
	h := s.Handler(Options{MaxInFlight: 8, RequestTimeout: 5 * time.Second})

	var exchanges []goldenExchange
	for _, q := range goldenQueries {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", q.Path, nil))
		exchanges = append(exchanges, goldenExchange{
			Name:      q.Name,
			Path:      q.Path,
			Status:    rec.Code,
			RequestID: rec.Header().Get("X-Request-ID"),
			Body:      json.RawMessage(rec.Body.Bytes()),
		})
	}
	testutil.GoldenJSON(t, "testdata/golden_responses.json", exchanges)
}

// TestGoldenResponsesOrderInsensitive proves the property the snapshot
// relies on: identical requests produce byte-identical bodies no matter
// when they run — the repeat-bare exchange must equal the bare one.
func TestGoldenResponsesOrderInsensitive(t *testing.T) {
	s, _ := serverFixture(t)
	h := s.Handler(Options{MaxInFlight: 8, RequestTimeout: 5 * time.Second})
	path := "/search?q=" + url.QueryEscape("free download") + "&country=US"

	get := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Body.String()
	}
	first := get()
	// Interleave unrelated traffic, then repeat: the body must not move.
	for _, p := range []string{"/search?q=zzz", "/stats", path, "/search?q=" + url.QueryEscape("download totally free")} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", p, nil))
	}
	if again := get(); again != first {
		t.Fatalf("identical request produced different body after interleaved traffic:\n%s",
			testutil.Diff(first, again))
	}
}

// TestServingModelMatchesInlineRoll pins the adserver's click model to
// the 0.1·quality·relevance roll it replaced, over every page of the
// world behind cmd/adbench's golden report (scenario_tiny.json's shape
// and seed): for every keyword × market × query form, servingModel's
// ClickProbability equals 0.1*q*r bit for bit, and the served pages
// roll at least one click (bare phrases are served until one does).
// golden_responses.json pins no click at all, so this and the adbench
// golden are what hold the roll still.
func TestServingModelMatchesInlineRoll(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstraps a world")
	}
	const seed = 90210
	cfg, err := sim.Shape{Scale: "small", Seed: seed, Days: 6, Queries: 150}.Config()
	if err != nil {
		t.Fatal(err)
	}
	boot := sim.New(cfg)
	s := New(boot.Run().Platform, boot.Queries(), auction.DefaultConfig(), seed)
	h := s.Handler(Options{})

	var (
		pg         clicks.Page
		scr        clicks.Scratch
		placements int
	)
	for _, q := range s.kws {
		for _, m := range market.All() {
			q.Country = m.Country
			for _, q.Form = range []platform.QueryForm{platform.FormBare, platform.FormExtended, platform.FormReordered} {
				s.pages.Build(&pg, &scr, s.p.Index().Sublists(q.Vertical, q.Country), &q, s.live)
				for i, pl := range pg.Placements {
					want := 0.1 * pl.Ref.Ad.Quality * pl.Relevance
					if math.Float64bits(pg.CPs[i]) != math.Float64bits(want) {
						t.Fatalf("%s/%s/%v position %d: ClickProbability %v, inline roll %v",
							q.Vertical, q.Country, q.Form, pl.Position, pg.CPs[i], want)
					}
				}
				placements += len(pg.Placements)
				if q.Form == platform.FormBare && len(pg.Placements) > 0 && s.clicks.Load() == 0 {
					phrase := s.gen.Universe(q.VerticalIdx).Keywords[q.KeywordID].Phrase
					h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET",
						"/search?q="+url.QueryEscape(phrase)+"&country="+string(q.Country), nil))
				}
			}
		}
	}
	if placements == 0 || s.clicks.Load() == 0 {
		t.Fatalf("%d placements compared, %d clicks served: the check proves nothing", placements, s.clicks.Load())
	}
	t.Logf("%d placements compared; the first click came on served page %d", placements, s.served.Load())
}
