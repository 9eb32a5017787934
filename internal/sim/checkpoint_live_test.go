package sim

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestCheckpointSaveAllocs pins the save path's garbage: one warm
// SaveCheckpointLineage on a world of the durable benchmark's shape
// allocates under a tenth of the frame it writes. Every buffer — the
// frame, the index half, the platform writer's scratch, the state the gob
// encodes — lives on the Sim between saves.
func TestCheckpointSaveAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Days = 60
	cfg.QueriesPerDay = 1500
	cfg.InitialLegit = 400
	cfg.RegistrationsPerDay = 12
	s := New(cfg)
	for s.Day() < 50 {
		s.Step()
	}
	lin := Lineage{Path: filepath.Join(t.TempDir(), "ck.frsnap")}
	pos := LogPosition{NextSegment: 5, Events: 1000}
	if err := s.SaveCheckpointLineage(lin, pos); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.SaveCheckpointLineage(lin, pos); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	fi, err := os.Stat(lin.Path)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc*10 >= uint64(fi.Size()) {
		t.Fatalf("a warm save allocated %d bytes for a %d-byte frame, want under 10%%", alloc, fi.Size())
	}
}
