package adserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"repro/internal/adcopy"
	"repro/internal/auction"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/queries"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/verticals"
)

// serverFixture builds a frozen platform with a few advertisers bidding on
// the downloads vertical's head keyword and wraps it in a Server.
func serverFixture(t testing.TB) (*Server, *queries.Generator) {
	t.Helper()
	p := platform.New()
	gen := queries.NewGenerator(stats.NewRNG(1))
	u := gen.UniverseFor(verticals.Downloads)
	for i := 0; i < 5; i++ {
		a := p.Register(platform.RegistrationRequest{Country: market.US, PrimaryVertical: verticals.Downloads})
		if err := p.Approve(a.ID); err != nil {
			t.Fatal(err)
		}
		ad, err := p.CreateAd(a.ID, verticals.Downloads, market.US,
			adcopy.Creative{Title: "Get It Now", DisplayURL: "www.x.com"},
			0.4+0.1*float64(i), simclock.StampAt(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		match := platform.MatchTypes[i%3]
		kw := u.Keywords[0]
		if err := p.AddBid(ad, platform.KeywordBid{
			KeywordID: kw.ID, Cluster: kw.Cluster, Match: match, MaxBid: 1 + float64(i)*0.3,
		}, 0); err != nil {
			t.Fatal(err)
		}
	}
	return New(p, gen, auction.DefaultConfig(), 42), gen
}

// getJSON issues one plain GET and decodes the 200 body into v.
func getJSON(u string, v interface{}) error {
	resp, err := http.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", u, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func searchURL(base, q string, country market.Country) string {
	return base + "/search?q=" + url.QueryEscape(q) + "&country=" + string(country)
}

func search(t testing.TB, base, q string, country market.Country) (out SearchResponse) {
	t.Helper()
	if err := getJSON(searchURL(base, q, country), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func fetchStats(t testing.TB, base string) (out Stats) {
	t.Helper()
	if err := getJSON(base+"/stats", &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestResolveBareExtendedReordered(t *testing.T) {
	s, gen := serverFixture(t)
	u := gen.UniverseFor(verticals.Downloads)
	phrase := u.Keywords[0].Phrase // "free download"

	q, ok := s.Resolve(phrase)
	if !ok || q.Form != platform.FormBare || q.Vertical != verticals.Downloads || q.KeywordID != 0 {
		t.Fatalf("bare resolve: %+v %v", q, ok)
	}
	q, ok = s.Resolve("best " + phrase + " now")
	if !ok || q.Form != platform.FormExtended {
		t.Fatalf("extended resolve: form %v ok %v", q.Form, ok)
	}
	q, ok = s.Resolve("download totally free")
	if !ok || q.Form != platform.FormReordered {
		t.Fatalf("reordered resolve: form %v ok %v", q.Form, ok)
	}
	if _, ok = s.Resolve("zzz qqq xxx"); ok {
		t.Fatal("garbage resolved")
	}
	if _, ok = s.Resolve(""); ok {
		t.Fatal("empty query resolved")
	}
}

func TestSearchEndpoint(t *testing.T) {
	s, gen := serverFixture(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	phrase := gen.UniverseFor(verticals.Downloads).Keywords[0].Phrase
	resp := search(t, ts.URL, phrase, market.US)
	if resp.Vertical != string(verticals.Downloads) || resp.Form != "bare" {
		t.Fatalf("resolution: %+v", resp)
	}
	if len(resp.Ads) == 0 {
		t.Fatal("no ads served for head keyword")
	}
	prev := 0
	for _, ad := range resp.Ads {
		if ad.Position <= prev {
			t.Fatal("positions not increasing")
		}
		prev = ad.Position
		if ad.CPC <= 0 {
			t.Fatalf("non-positive CPC %v", ad.CPC)
		}
	}
}

func TestSearchWrongMarketServesNothing(t *testing.T) {
	s, gen := serverFixture(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	phrase := gen.UniverseFor(verticals.Downloads).Keywords[0].Phrase
	resp := search(t, ts.URL, phrase, market.DE)
	if len(resp.Ads) != 0 {
		t.Fatal("ads served into an untargeted market")
	}
}

func TestSearchMissingQueryIs400(t *testing.T) {
	s, _ := serverFixture(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestHealthAndStats(t *testing.T) {
	s, gen := serverFixture(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatal("unhealthy")
	}

	phrase := gen.UniverseFor(verticals.Downloads).Keywords[0].Phrase
	search(t, ts.URL, phrase, market.US)
	search(t, ts.URL, "zzz qqq", market.US)
	st := fetchStats(t, ts.URL)
	if st.Served != 1 || st.NoMatch != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Accounts != 5 || st.LiveAds != 5 {
		t.Fatalf("platform stats %+v", st)
	}
}

func TestConcurrentSearches(t *testing.T) {
	s, gen := serverFixture(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	phrase := gen.UniverseFor(verticals.Downloads).Keywords[0].Phrase
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var out SearchResponse
				if err := getJSON(searchURL(ts.URL, phrase, market.US), &out); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := fetchStats(t, ts.URL)
	if st.Served != 160 {
		t.Fatalf("served %d, want 160", st.Served)
	}
}

func TestContainsHelpers(t *testing.T) {
	if !containsInOrder([]string{"a", "b", "c"}, []string{"b", "c"}) {
		t.Fatal("suffix not found")
	}
	if containsInOrder([]string{"a", "c", "b"}, []string{"b", "c"}) {
		t.Fatal("out-of-order accepted")
	}
	if !containsAll([]string{"x", "b", "c"}, []string{"c", "b"}) {
		t.Fatal("set containment failed")
	}
	if containsAll([]string{"a"}, []string{"a", "b"}) {
		t.Fatal("missing token accepted")
	}
	if containsAll([]string{"a"}, nil) || containsInOrder([]string{"a"}, nil) {
		t.Fatal("empty needle accepted")
	}
}
