package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/eventlog"
)

func TestSetupServesSearchAndStats(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstraps a simulation")
	}
	var errw strings.Builder
	f, cfg, err := parseFlags([]string{
		"-addr", ":0", "-scale", "small", "-seed", "7",
		"-days", "60", "-queries", "500",
	}, &errw)
	if err != nil {
		t.Fatalf("parseFlags: %v (stderr: %s)", err, errw.String())
	}
	if f.addr != ":0" {
		t.Errorf("addr = %q", f.addr)
	}
	srv, err := bootstrap(cfg, f.seed, &errw)
	if err != nil {
		t.Fatalf("bootstrap: %v (stderr: %s)", err, errw.String())
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(path string, into interface{}) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}

	var health map[string]string
	get("/healthz", &health)
	if health["status"] != "ok" {
		t.Errorf("health: %v", health)
	}

	var search struct {
		Query   string `json:"query"`
		Country string `json:"country"`
	}
	get("/search?q=free+download&country=US", &search)
	if search.Query != "free download" || search.Country != "US" {
		t.Errorf("search echo: %+v", search)
	}

	var stats struct {
		Served   int64 `json:"served"`
		NoMatch  int64 `json:"noMatch"`
		Accounts int   `json:"accounts"`
	}
	get("/stats", &stats)
	if stats.Accounts == 0 {
		t.Error("stats report zero accounts")
	}
	if stats.Served+stats.NoMatch == 0 {
		t.Error("search request not counted")
	}

	// Missing q is a client error.
	resp, err := http.Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing q: got %s, want 400", resp.Status)
	}
}

func TestSetupRejectsUnknownScale(t *testing.T) {
	var errw strings.Builder
	if _, _, err := parseFlags([]string{"-scale", "galactic"}, &errw); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

// TestSetupRejectsNegativeSizes: a negative size would silently turn
// its feature off, as zero does on purpose.
func TestSetupRejectsNegativeSizes(t *testing.T) {
	for _, args := range [][]string{
		{"-max-inflight", "-5"},
		{"-request-timeout", "-1s"},
		{"-grace", "-1s"},
		{"-eventlog-queue", "-1"},
	} {
		var errw strings.Builder
		if _, _, err := parseFlags(args, &errw); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestRunRejectsUnknownScaleBeforeListening(t *testing.T) {
	if err := run([]string{"-scale", "galactic"}, io.Discard, nil, nil); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

// TestRunFullLifecycle exercises the production entry point end to end:
// bind, bootstrap, readiness flip, live traffic with impression-event
// recording, SIGTERM drain, and a readable event log left on disk.
func TestRunFullLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstraps a simulation")
	}
	evDir := filepath.Join(t.TempDir(), "events")
	stop := make(chan os.Signal, 1)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0", "-scale", "small", "-seed", "7",
			"-days", "60", "-queries", "500", "-grace", "5s",
			"-eventlog", evDir,
		}, io.Discard, stop, func(a net.Addr) { ready <- a })
	}()

	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr.String()
	case err := <-done:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(3 * time.Minute):
		t.Fatal("bootstrap did not complete")
	}

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Errorf("readyz after bootstrap: %d", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz: %d", code)
	}
	if code := get("/search?q=free+download&country=US"); code != http.StatusOK {
		t.Errorf("search: %d", code)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned error on drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not drain and exit after SIGTERM")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}

	// The served impressions were recorded and survive as a readable log.
	impressions := 0
	err := eventlog.ScanDir(evDir, eventlog.Filter{Types: eventlog.TypeMask(eventlog.TypeImpression)},
		func(ev *eventlog.Event) error {
			impressions++
			if ev.Country != "US" || ev.Position < 1 {
				t.Errorf("malformed impression record: %+v", ev)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("scan event log: %v", err)
	}
	if impressions == 0 {
		t.Error("no impression events recorded")
	}
}
