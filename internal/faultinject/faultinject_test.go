package faultinject

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
}

// fate is what one arrival experienced at the fault layer.
type fate int

const (
	fateServed fate = iota
	fateError
	fateDrop
	fatePanic
)

// drive sends n sequential requests through a named profile in-process
// and records each arrival's fate. Connection drops surface as the
// http.ErrAbortHandler panic, recovered here the way net/http does.
func drive(in *Injector, name string, f Faults, n int) []fate {
	h := in.HTTP(name, f)(okHandler())
	out := make([]fate, n)
	for i := range out {
		out[i] = func() (ft fate) {
			defer func() {
				if p := recover(); p != nil {
					ft = fatePanic
					if p == http.ErrAbortHandler {
						ft = fateDrop
					}
				}
			}()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=x", nil))
			if rec.Code != http.StatusOK {
				return fateError
			}
			return fateServed
		}()
	}
	return out
}

// TestChaosDecisionsDeterministic: fates are a pure function of
// (injector seed, name, arrival index) — same seed, same fate sequence
// and counters; a different seed or name, a different sequence.
func TestChaosDecisionsDeterministic(t *testing.T) {
	const n = 300
	profile := Faults{PanicRate: 0.1, DropRate: 0.2, ErrorRate: 0.3}
	run := func(seed uint64, name string) ([]fate, Stats) {
		in := New(seed)
		return drive(in, name, profile, n), in.Stats(name)
	}
	a, sa := run(11, "b0")
	b, sb := run(11, "b0")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d fate differs across identically-seeded runs: %v vs %v", i+1, a[i], b[i])
		}
	}
	if sa != sb {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
	}
	counts := map[fate]int{}
	for _, f := range a {
		counts[f]++
	}
	if len(counts) != 4 {
		t.Fatalf("fate mix degenerate: %v", counts)
	}

	diff := func(other []fate) bool {
		for i := range a {
			if a[i] != other[i] {
				return true
			}
		}
		return false
	}
	if c, _ := run(12, "b0"); !diff(c) {
		t.Fatal("different injector seeds produced identical fates")
	}
	if c, _ := run(11, "b1"); !diff(c) {
		t.Fatal("different names produced identical fates")
	}
}

// TestChaosErrorBodyAndStatus: the injected reply is a 503 with the
// machine-readable code the router keys on.
func TestChaosErrorBodyAndStatus(t *testing.T) {
	in := New(1)
	for _, tc := range []struct {
		f    Faults
		want int
	}{
		{Faults{ErrorRate: 1}, http.StatusServiceUnavailable},
		{Faults{FailFrom: 1, FailUntil: 2}, http.StatusServiceUnavailable},
	} {
		rec := httptest.NewRecorder()
		in.HTTP("x", tc.f)(okHandler()).ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
		if rec.Code != tc.want {
			t.Fatalf("%+v: status %d, want %d", tc.f, rec.Code, tc.want)
		}
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Fatalf("content-type %q", got)
		}
		if !strings.Contains(rec.Body.String(), "fault_injected") {
			t.Fatalf("body %q missing injected code", rec.Body.String())
		}
	}
}

// TestBackendFateDeterminism pins a cluster member's profile (drops and
// errors, no panics) to the decision stream itself: arrival n rolls
// from stats.NewRNG(seed ^ FNV-1a(name) ^ n·φ), drop before error, and
// an unconfigured class draws nothing — so the member profiles the
// router chaos suite and loadgen mount meet exactly the fates they met
// before the HTTP profiles were one type.
func TestBackendFateDeterminism(t *testing.T) {
	const n = 300
	profile := Faults{ErrorRate: 0.3, DropRate: 0.2}
	for _, c := range []struct {
		seed uint64
		name string
	}{{11, "b0"}, {12, "b0"}, {11, "b1"}} {
		got := drive(New(c.seed), c.name, profile, n)
		counts := map[fate]int{}
		for i, f := range got {
			arrival := uint64(i + 1)
			rng := stats.NewRNG(c.seed ^ stats.FNV1a(stats.FNVOffset, c.name) ^ (arrival * 0x9e3779b97f4a7c15))
			want := fateServed
			if rng.Float64() < profile.DropRate {
				want = fateDrop
			} else if rng.Float64() < profile.ErrorRate {
				want = fateError
			}
			if f != want {
				t.Fatalf("seed %d name %q arrival %d: fate %v, want %v", c.seed, c.name, arrival, f, want)
			}
			counts[f]++
		}
		if counts[fateServed] == 0 || counts[fateError] == 0 || counts[fateDrop] == 0 || counts[fatePanic] != 0 {
			t.Fatalf("seed %d name %q: fate mix %v", c.seed, c.name, counts)
		}
	}
}

// TestBackendErrorStatusDefault: a member's outage window replies 503,
// and the reply names the profile and the arrival that met the fault.
func TestBackendErrorStatusDefault(t *testing.T) {
	in := New(1)
	for _, tc := range []struct {
		name string
		f    Faults
		want int
	}{
		{"s", Faults{FailFrom: 2, FailUntil: 3}, http.StatusServiceUnavailable},
	} {
		h := in.HTTP(tc.name, tc.f)(okHandler())
		for i, want := range []int{http.StatusOK, tc.want, http.StatusOK} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search", nil))
			if rec.Code != want {
				t.Fatalf("%s arrival %d: status %d, want %d", tc.name, i+1, rec.Code, want)
			}
			if want == http.StatusOK {
				continue
			}
			if body, tag := rec.Body.String(), "name="+tc.name+" n=2"; !strings.Contains(body, tag) {
				t.Fatalf("%s: body %q does not name %q", tc.name, body, tag)
			}
		}
	}
}

func TestChaosLatencyRespectsContext(t *testing.T) {
	in := New(1)
	h := in.HTTP("x", Faults{Latency: 5 * time.Second})(okHandler())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest("GET", "/x", nil).WithContext(ctx)
	start := time.Now()
	h.ServeHTTP(httptest.NewRecorder(), req)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("injected sleep ignored context cancellation (%s)", elapsed)
	}
	if st := in.Stats("x"); st.Delayed != 1 {
		t.Fatalf("delayed count %d", st.Delayed)
	}
}

func TestChaosPanicInjection(t *testing.T) {
	in := New(1)
	if got := drive(in, "x", Faults{PanicRate: 1}, 1); got[0] != fatePanic {
		t.Fatalf("PanicRate=1: fate %v, want a panic", got[0])
	}
	if st := in.Stats("x"); st.InjectedPanics != 1 {
		t.Fatalf("panic count %d", st.InjectedPanics)
	}
}

// TestChaosUnconfiguredRoutePassesThrough: a zero profile serves every
// request untouched and only counts it; an unregistered name reads zero.
func TestChaosUnconfiguredRoutePassesThrough(t *testing.T) {
	in := New(1)
	for i, f := range drive(in, "clean", Faults{}, 50) {
		if f != fateServed {
			t.Fatalf("arrival %d: fate %v through a zero profile", i+1, f)
		}
	}
	if st := in.Stats("clean"); st != (Stats{Requests: 50}) {
		t.Fatalf("zero profile stats %+v", st)
	}
	if st := in.Stats("other"); st != (Stats{}) {
		t.Fatalf("unknown name has stats %+v", st)
	}
}

// TestBackendOutageWindowExact pins the 1-based inclusive/exclusive
// window arithmetic: arrivals [FailFrom, FailUntil) fail, everything
// else serves.
func TestBackendOutageWindowExact(t *testing.T) {
	fates := drive(New(5), "w", Faults{FailFrom: 3, FailUntil: 6}, 10)
	for i, f := range fates {
		n := uint64(i + 1)
		want := fateServed
		if n >= 3 && n < 6 {
			want = fateError
		}
		if f != want {
			t.Fatalf("arrival %d: fate %v, want %v", n, f, want)
		}
	}
	// DropOutage severs instead of replying.
	fates = drive(New(5), "wd", Faults{FailFrom: 1, FailUntil: 3, DropOutage: true}, 4)
	want := []fate{fateDrop, fateDrop, fateServed, fateServed}
	for i := range want {
		if fates[i] != want[i] {
			t.Fatalf("drop-outage arrival %d: fate %v, want %v", i+1, fates[i], want[i])
		}
	}
}

// TestBackendStatsCounters: the per-name tallies match the driven fates,
// and registering a name again resets them.
func TestBackendStatsCounters(t *testing.T) {
	in := New(21)
	profile := Faults{Latency: time.Microsecond, PanicRate: 0.05, ErrorRate: 0.4, DropRate: 0.1}
	fates := drive(in, "c", profile, 200)
	var want Stats
	for _, f := range fates {
		switch f {
		case fateError:
			want.InjectedErrors++
		case fateDrop:
			want.DroppedConns++
		case fatePanic:
			want.InjectedPanics++
		}
	}
	want.Requests, want.Delayed = 200, 200
	if got := in.Stats("c"); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	drive(in, "c", profile, 3)
	if got := in.Stats("c"); got.Requests != 3 {
		t.Fatalf("re-registered name kept %d requests, want 3", got.Requests)
	}
}

func TestChaosWriterFaultsDeterministic(t *testing.T) {
	const n = 100
	run := func(seed uint64) ([]bool, WriterStats) {
		in := New(seed)
		w := in.Writer("log", io.Discard, WriteFaults{ErrorRate: 0.4})
		fates := make([]bool, n)
		for i := range fates {
			_, err := w.Write([]byte("x"))
			fates[i] = err != nil
		}
		return fates, in.WriterStats("log")
	}
	a, sa := run(42)
	b, sb := run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at write %d", i)
		}
	}
	if sa != sb {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
	}
	if sa.Writes != n || sa.Failed == 0 || sa.Failed == n {
		t.Fatalf("40%% error rate failed %d/%d writes", sa.Failed, sa.Writes)
	}
	c, _ := run(9)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical write fates")
	}
}

func TestChaosWriterErrorPropagation(t *testing.T) {
	in := New(1)
	w := in.Writer("always", io.Discard, WriteFaults{ErrorRate: 1})
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrInjectedWrite) {
		t.Fatalf("err = %v, want ErrInjectedWrite", err)
	}
	// Zero rate passes everything through untouched.
	passthrough := in.Writer("clean", io.Discard, WriteFaults{})
	for i := 0; i < 50; i++ {
		if _, err := passthrough.Write([]byte("x")); err != nil {
			t.Fatalf("clean writer failed: %v", err)
		}
	}
	if st := in.WriterStats("clean"); st.Failed != 0 || st.Writes != 50 {
		t.Fatalf("clean writer stats: %+v", st)
	}
}
