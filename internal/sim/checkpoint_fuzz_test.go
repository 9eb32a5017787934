package sim_test

// FuzzRestoreCheckpoint feeds hostile bytes through the full resume path:
// DecodeCheckpoint (framing, CRC, guarded decode, the platform's checks)
// and, when that accepts, Restore, then one day of the restored sim. None
// may ever panic — a corrupt checkpoint must come back as an error, and a
// checkpoint that restores must land on the day it recorded and run.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/platform"
	"repro/internal/sim"
)

func FuzzRestoreCheckpoint(f *testing.F) {
	// Seed with a real mid-run checkpoint plus structured corruptions of
	// it: torn tails, flipped payload bytes, and CRC-valid blobs whose
	// decoded state is nonsense (those must be caught by Restore's own
	// validation, not the framing).
	cfg := crashConfig(3)
	cfg.Days = 6
	cfg.QueriesPerDay = 100
	cfg.RegistrationsPerDay = 4
	cfg.InitialLegit = 40
	s := sim.New(cfg)
	for int(s.Day()) < 3 {
		if !s.Step() {
			f.Fatal("horizon ended before checkpoint day")
		}
	}
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.frsnap")
	if err := s.WriteCheckpointFile(path, sim.LogPosition{NextSegment: 2, Events: 17}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{})
	f.Add([]byte("FRSNAP\x01"))
	f.Add([]byte("FRSNAP\x02junk"))
	f.Add([]byte("FRSNAP\x03junk"))
	f.Add([]byte("FRSNAP\x04junk"))
	for _, i := range []int{7, len(valid) / 3, len(valid) - 5} {
		mut := bytes.Clone(valid)
		mut[i] ^= 0x40
		f.Add(mut)
	}
	// CRC-valid but semantically hostile: re-frame a decoded checkpoint
	// after vandalizing its state. Each must come back from Restore as an
	// error. A collector sized past the platform must be refused before
	// anything is allocated for it, and a detection record must name a
	// tracked account, since the first-detection index is rebuilt from
	// the records.
	for _, vandalize := range []func(*sim.State){
		func(st *sim.State) { st.Day = -1 },
		func(st *sim.State) { st.Collector.NumAccounts = 1 << 40 },
		func(st *sim.State) {
			st.Collector.Detections = append(st.Collector.Detections,
				dataset.DetectionRecord{Account: platform.AccountID(st.Collector.NumAccounts)})
		},
	} {
		c, err := sim.DecodeCheckpoint(valid)
		if err != nil {
			f.Fatal(err)
		}
		vandalize(c.State)
		if err := sim.WriteCheckpoint(path, c); err != nil {
			f.Fatal(err)
		}
		hostile, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if c, err = sim.DecodeCheckpoint(hostile); err != nil {
			f.Fatalf("a re-framed checkpoint should decode (the damage is semantic): %v", err)
		}
		if _, err := sim.Restore(c.State); err == nil {
			f.Fatal("Restore accepted a vandalized state")
		}
		f.Add(hostile)
	}
	// Likewise for the platform's columns: lengths, counts and references
	// that disagree with each other, a match byte past MatchBroad (which
	// the click fold would index with) and a misfiled reference, all of
	// which the column decoder refuses.
	for _, hostile := range hostilePlatformFrames(f, valid) {
		f.Add(hostile)
	}
	for _, hostile := range reframeColumns(valid) {
		f.Add(hostile)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := sim.DecodeCheckpoint(data)
		if err != nil {
			return // rejected cleanly
		}
		restored, err := sim.Restore(c.State)
		if err != nil {
			return // decoded but invalid: also fine, as long as it's an error
		}
		if restored.Day() != c.State.Day {
			t.Fatalf("restored sim at day %d, checkpoint says %d", restored.Day(), c.State.Day)
		}
		restored.Step()
	})
}
