package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestLiveCheckpointMatchesReference steps small runs to their horizon
// one phase at a time and, at every boundary, encodes the checkpoint
// the way a save does — the platform written straight from the live
// tables, its two halves in sequence at one worker and on two goroutines
// at two and four — and the way WriteCheckpoint does for a Snapshot, by
// the reference writer. All four frames must be the same bytes. The runs
// use two workers, so every agents→serving boundary has a draw-ahead
// pending.
func TestLiveCheckpointMatchesReference(t *testing.T) {
	for _, seed := range []uint64{17, 29, 43} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := SmallConfig()
			cfg.Seed = seed
			cfg.Days = 6
			cfg.QueriesPerDay = 300
			cfg.InitialLegit = 100
			cfg.Workers = 2
			s := New(cfg)
			pos := LogPosition{NextSegment: 2, Events: 40}
			for more := true; more; {
				more = s.StepPhase()
				want, err := encodeCheckpoint(new(checkpointBufs), &Checkpoint{State: s.Snapshot(), Log: pos})
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 4} {
					got, err := s.encodeCheckpoint(pos, workers)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("day %d phase %s, %d workers: live frame (%d bytes) differs from the reference (%d bytes)",
							s.Day(), s.Phase(), workers, len(got), len(want))
					}
				}
			}
		})
	}
}

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
