package adserver

// Fuzz targets for the untrusted input of /search. FuzzResolve drives
// the query-resolution path: Resolve sits directly on the q parameter,
// so it must never panic, must be deterministic, and must only ever
// return well-formed keyword queries. FuzzSearchStack drives the whole
// serving stack with a raw query string and an X-Request-ID header.
// Seed corpus lives under testdata/fuzz/FuzzResolve/; `make fuzz-smoke`
// runs a short exploration burst of each.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/platform"
)

func FuzzResolve(f *testing.F) {
	s, gen := serverFixture(f)
	s2, _ := serverFixture(f) // independent instance for determinism checks

	f.Add("free download")
	f.Add("best free download now")
	f.Add("download totally free")
	f.Add("")
	f.Add("   ")
	f.Add("zzz qqq xxx")
	f.Add("FREE   DOWNLOAD!!!")
	f.Add("frée döwnload — now")
	f.Add("download download download download download download")

	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	f.Fuzz(func(t *testing.T, text string) {
		q, ok := s.Resolve(text)
		q2, ok2 := s2.Resolve(text)
		if ok != ok2 || q != q2 {
			t.Fatalf("resolution not deterministic for %q: (%+v,%v) vs (%+v,%v)", text, q, ok, q2, ok2)
		}
		if !ok {
			return
		}
		switch q.Form {
		case platform.FormBare, platform.FormExtended, platform.FormReordered:
		default:
			t.Fatalf("resolved %q to invalid form %v", text, q.Form)
		}
		u := gen.Universe(q.VerticalIdx)
		if q.KeywordID < 0 || q.KeywordID >= u.Size() {
			t.Fatalf("resolved %q to out-of-range keyword %d (universe %d)", text, q.KeywordID, u.Size())
		}
		if u.Vertical != q.Vertical || u.Keywords[q.KeywordID].Cluster != q.Cluster {
			t.Fatalf("resolved %q to mismatched vertical %q / cluster %d (universe %q)", text, q.Vertical, q.Cluster, u.Vertical)
		}

		// A canceled context must abort cleanly (ok=false or the exact
		// same answer), never panic. Exact-match hits return before the
		// scan, so both outcomes are legal.
		if _, cok, err := s.resolve(canceled, text); cok && err != nil {
			t.Fatalf("canceled resolve returned both ok and error for %q", text)
		}
	})
}

// FuzzSearchStack: any raw query string and X-Request-ID header, through
// admission, the cache and the deadline, is answered 200 or 400 without
// a panic; the body decodes as SearchResponse or ErrorBody (carrying the
// echoed ID); and a repeated 200 is a byte-identical cache hit.
func FuzzSearchStack(f *testing.F) {
	s, _ := serverFixture(f)
	h := s.Handler(Options{MaxInFlight: 8, RequestTimeout: 5 * time.Second, CacheSize: 64})

	f.Add("q=free+download&country=US", "")
	f.Add("q=best+free+download+now", "client-7")
	f.Add("q=download%20totally%20free&country=DE", "")
	f.Add("", "r00000001")
	f.Add("q=", "")
	f.Add("q=%zz&country=US", "")
	f.Add("q=zzz&q=free+download", "\xff")
	f.Add(";q=free download;country", "")

	get := func(raw, id string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", "/search", nil)
		req.URL.RawQuery = raw
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	f.Fuzz(func(t *testing.T, raw, id string) {
		rec := get(raw, id)
		gotID := rec.Header().Get("X-Request-ID")
		if gotID == "" || (id != "" && gotID != id) {
			t.Fatalf("X-Request-ID %q for client ID %q", gotID, id)
		}
		if n := s.panics.Load(); n != 0 {
			t.Fatalf("%q: panics counter %d", raw, n)
		}
		switch rec.Code {
		case http.StatusOK:
			var resp SearchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%q: 200 body %q: %v", raw, rec.Body.Bytes(), err)
			}
			again := get(raw, id)
			if again.Code != http.StatusOK || again.Header().Get("X-Cache") != "hit" || !bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()) {
				t.Fatalf("%q: repeat is %d X-Cache %q, body equal %v; want a byte-identical 200 hit",
					raw, again.Code, again.Header().Get("X-Cache"), bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()))
			}
		case http.StatusBadRequest:
			var body ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("%q: 400 body %q: %v", raw, rec.Body.Bytes(), err)
			}
			// JSON carries invalid UTF-8 as U+FFFD, so only a valid ID
			// round-trips byte for byte.
			if utf8.ValidString(gotID) && body.RequestID != gotID {
				t.Fatalf("%q: error body ID %q, header %q", raw, body.RequestID, gotID)
			}
		default:
			t.Fatalf("%q: status %d, want 200 or 400", raw, rec.Code)
		}
	})
}
