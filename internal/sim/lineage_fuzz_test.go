package sim_test

// FuzzLineageLoad materializes a three-generation lineage from fuzzer
// bytes and runs the full restore walk over it. The invariants under
// arbitrary damage: Load never panics, never returns both a checkpoint
// and an error, returns the newest generation that validates, and every
// invalid newer generation ends up quarantined (renamed, never deleted)
// with the byte evidence intact.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

func FuzzLineageLoad(f *testing.F) {
	cfg := crashConfig(11)
	cfg.Days = 6
	cfg.QueriesPerDay = 100
	cfg.RegistrationsPerDay = 4
	cfg.InitialLegit = 40
	s := sim.New(cfg)
	for int(s.Day()) < 2 {
		if !s.Step() {
			f.Fatal("horizon ended before checkpoint day")
		}
	}
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.frsnap")
	if err := s.WriteCheckpointFile(seedPath, sim.LogPosition{NextSegment: 1, Events: 9}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	torn := valid[:len(valid)/2]
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-3] ^= 0x40

	// Seed corpus: clean chain, damaged newest, damaged middle, all bad,
	// empty members, and a stale staging file in the mix.
	f.Add(valid, valid, valid, false)
	f.Add(flipped, valid, valid, false)
	f.Add(valid, torn, valid, true)
	f.Add(flipped, torn, []byte{}, false)
	f.Add([]byte{}, []byte{}, []byte{}, true)
	f.Add([]byte("FRSNAP\x02junk"), flipped, torn, false)
	f.Add([]byte("FRSNAP\x03junk"), flipped, torn, false)
	f.Add([]byte("FRSNAP\x04junk"), flipped, torn, false)
	// CRC-valid frames whose platform is self-inconsistent: Load
	// quarantines them like a torn frame, since DecodeCheckpoint runs the
	// platform's checks; they are here so the fuzzer mutates from both
	// sides of the CRC.
	for _, hostile := range hostilePlatformFrames(f, valid) {
		f.Add(hostile, valid, torn, false)
	}
	for _, hostile := range reframeColumns(valid) {
		f.Add(hostile, valid, torn, false)
	}

	f.Fuzz(func(t *testing.T, g0, g1, g2 []byte, staleTmp bool) {
		lin := sim.Lineage{Path: filepath.Join(t.TempDir(), "ck.frsnap")}
		gens := []string{lin.Path, lin.Path + ".1", lin.Path + ".2"}
		// Empty fuzz members model a missing generation (a hole in the
		// chain), not an empty file.
		for i, data := range [][]byte{g0, g1, g2} {
			if len(data) == 0 {
				continue
			}
			if err := os.WriteFile(gens[i], data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if staleTmp {
			if err := os.WriteFile(lin.Path+".tmp", torn, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		c, rep, err := lin.Load()
		if (c != nil) == (err == nil) == false {
			t.Fatalf("Load returned checkpoint=%v err=%v", c != nil, err)
		}
		if staleTmp && rep.SweptTmp == "" {
			t.Fatal("stale tmp not swept")
		}
		if _, serr := os.Stat(lin.Path + ".tmp"); !os.IsNotExist(serr) {
			t.Fatal("tmp file survived Load")
		}
		// The walk stops at the first valid generation: quarantined files
		// must all be newer than the restored one, and each must have its
		// evidence preserved under the .corrupt name.
		for _, q := range rep.Quarantined {
			if _, serr := os.Stat(q + sim.CorruptSuffix); serr != nil {
				t.Fatalf("quarantined %s lost its evidence: %v", q, serr)
			}
			if q == rep.From {
				t.Fatalf("%s both restored-from and quarantined", q)
			}
		}
		if err == nil {
			if rep.From == "" {
				t.Fatal("successful Load with empty From")
			}
			if got, rerr := sim.ReadCheckpoint(rep.From); rerr != nil || got == nil {
				t.Fatalf("restored-from file %s does not validate: %v", rep.From, rerr)
			}
		}
	})
}
