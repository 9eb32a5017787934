package main

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// writeCkpt runs a tiny sim a few days and writes one checkpoint file,
// returning its path and the day it captured.
func writeCkpt(t *testing.T) (string, int) {
	t.Helper()
	cfg := sim.SmallConfig()
	cfg.Seed = 11
	cfg.Days = 6
	cfg.QueriesPerDay = 50
	cfg.RegistrationsPerDay = 4
	cfg.InitialLegit = 30
	s := sim.New(cfg)
	for i := 0; i < 3; i++ {
		s.Step()
	}
	path := filepath.Join(t.TempDir(), "run.frsnap")
	if err := s.WriteCheckpointFile(path, sim.LogPosition{NextSegment: 2, Events: 123}); err != nil {
		t.Fatal(err)
	}
	return path, 3
}

func TestCkptInspectsValidFile(t *testing.T) {
	path, day := writeCkpt(t)
	var out, errw strings.Builder
	if err := run([]string{"ckpt", path}, &out, &errw); err != nil {
		t.Fatalf("ckpt on a valid file: %v", err)
	}
	got := out.String()
	for _, want := range []string{"ok (version", "day 3/6", "log segment 2, 123 events", "seed 11"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	_ = day
}

// TestCkptReportsCorruption: a flipped byte, a truncated file, a
// non-checkpoint file, and a file whose CRC holds but whose platform has
// a bid with no match type each come back CORRUPT with a reason, every
// file is still reported, and the command exits nonzero.
func TestCkptReportsCorruption(t *testing.T) {
	good, _ := writeCkpt(t)
	dir := t.TempDir()

	flipped := filepath.Join(dir, "flipped.frsnap")
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x40
	if err := os.WriteFile(flipped, mut, 0o644); err != nil {
		t.Fatal(err)
	}

	torn := filepath.Join(dir, "torn.frsnap")
	if err := os.WriteFile(torn, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	alien := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(alien, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The payload ends in the platform's columns; a match byte keeps
	// their length, so only they and the CRC change.
	c, err := sim.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.Restore(c.State)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Platform().Snapshot()
	st.BidMatch[0] = 7
	cols := st.AppendColumns(nil)
	mut = append([]byte(nil), data...)
	end := len(mut) - 4
	copy(mut[end-len(cols):end], cols)
	_, w := binary.Uvarint(mut[7:])
	binary.LittleEndian.PutUint32(mut[end:], crc32.Checksum(mut[7+w:end], crc32.MakeTable(crc32.Castagnoli)))
	unmatched := filepath.Join(dir, "unmatched.frsnap")
	if err := os.WriteFile(unmatched, mut, 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errw strings.Builder
	err = run([]string{"ckpt", good, flipped, torn, alien, unmatched}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "4 of 5 checkpoint files invalid") {
		t.Fatalf("ckpt over damaged files: %v", err)
	}
	got := out.String()
	if n := strings.Count(got, "CORRUPT"); n != 4 {
		t.Errorf("want 4 CORRUPT lines, got %d:\n%s", n, got)
	}
	if !strings.Contains(got, "match byte 7") {
		t.Errorf("the file with an unmatched bid should be called out by its match byte:\n%s", got)
	}
	if !strings.Contains(got, "ok (version") {
		t.Errorf("the valid file should still be reported ok:\n%s", got)
	}
	if !strings.Contains(got, "not a checkpoint") {
		t.Errorf("the alien file should be called out as not a checkpoint:\n%s", got)
	}
}

func TestCkptRequiresFiles(t *testing.T) {
	var out, errw strings.Builder
	if err := run([]string{"ckpt"}, &out, &errw); err == nil || !strings.Contains(err.Error(), "no checkpoint files") {
		t.Fatalf("ckpt with no args: %v", err)
	}
	if err := run([]string{"ckpt", filepath.Join(t.TempDir(), "missing.frsnap")}, &out, &errw); err == nil {
		t.Fatal("ckpt on a missing file succeeded")
	}
}

// TestCkptReportsUnreadableAndGoesOn: a missing path between two valid
// files gets a line of its own and counts as bad, and the file after it
// is still reported.
func TestCkptReportsUnreadableAndGoesOn(t *testing.T) {
	good, _ := writeCkpt(t)
	missing := filepath.Join(t.TempDir(), "run.frsnap.7")
	var out, errw strings.Builder
	err := run([]string{"ckpt", good, missing, good}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "1 of 3 checkpoint files") {
		t.Fatalf("ckpt over a missing middle path: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want one line per path, got %d:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[1], missing+": UNREADABLE") {
		t.Errorf("the missing path should be reported unreadable:\n%s", lines[1])
	}
	if !strings.HasPrefix(lines[2], good+": ok (version") {
		t.Errorf("the file after the missing one should still be reported ok:\n%s", lines[2])
	}
}
