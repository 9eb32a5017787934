package adserver

// Fuzz target for the query-resolution path: Resolve sits directly on
// untrusted input (the q parameter of /search), so it must never panic,
// must be deterministic, and must only ever return well-formed keyword
// queries. Seed corpus lives under testdata/fuzz/FuzzResolve/;
// `make fuzz-smoke` runs a short exploration burst.

import (
	"context"
	"testing"

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
