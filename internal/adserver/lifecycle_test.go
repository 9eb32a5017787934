package adserver

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestGateLifecycle(t *testing.T) {
	g := NewGate()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	// Bootstrapping: alive but not ready; other routes shed with 503.
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz while starting: %d", rec.Code)
	}
	if rec := get("/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while starting: %d", rec.Code)
	}
	rec := get("/search?q=x")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("search while starting: %d", rec.Code)
	}
	var body ErrorBody
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil || body.Code != "starting" {
		t.Fatalf("search-while-starting body %+v err %v", body, err)
	}

	// Installed: ready, inner handler serves.
	g.Install(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	if rec := get("/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz after install: %d", rec.Code)
	}
	if rec := get("/anything"); rec.Code != http.StatusTeapot {
		t.Fatalf("inner handler not reached: %d", rec.Code)
	}

	// Draining: readyz flips off, inner still serves in-flight traffic.
	g.StartDraining()
	if rec := get("/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", rec.Code)
	}
	if rec := get("/anything"); rec.Code != http.StatusTeapot {
		t.Fatalf("draining should still serve open traffic: %d", rec.Code)
	}
}
