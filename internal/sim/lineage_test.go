package sim_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// lineageState memoizes one real snapshot — lineage mechanics don't
// care what's inside the checkpoint, only that it validates.
var lineageState *sim.State

// lineageCkpt returns a valid checkpoint whose log position doubles as
// a generation marker, so tests can tell which save a file came from.
func lineageCkpt(t *testing.T, marker int) *sim.Checkpoint {
	t.Helper()
	if lineageState == nil {
		cfg := crashConfig(9)
		cfg.Days = 3
		s := sim.New(cfg)
		if !s.Step() {
			t.Fatal("sim ended before first day boundary")
		}
		lineageState = s.Snapshot()
	}
	return &sim.Checkpoint{State: lineageState, Log: sim.LogPosition{NextSegment: marker, Events: uint64(marker)}}
}

// flipByte damages a committed checkpoint in place (CRC-detectable).
func flipByte(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustLoad(t *testing.T, l sim.Lineage) (*sim.Checkpoint, *sim.LineageReport) {
	t.Helper()
	c, rep, err := l.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return c, rep
}

// TestLineageSaveShiftPrune: repeated saves shift the chain one slot
// per save, keep exactly Retain generations newest-first, and prune the
// one that falls off the end.
func TestLineageSaveShiftPrune(t *testing.T) {
	l := sim.Lineage{Path: filepath.Join(t.TempDir(), "ck.frsnap"), Retain: 3}
	for i := 1; i <= 5; i++ {
		if err := l.Save(lineageCkpt(t, i)); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	// Chain should be markers 5,4,3 at ck, ck.1, ck.2; nothing older.
	for g, want := range map[string]int{l.Path: 5, l.Path + ".1": 4, l.Path + ".2": 3} {
		c, err := sim.ReadCheckpoint(g)
		if err != nil {
			t.Fatalf("read %s: %v", g, err)
		}
		if c.Log.NextSegment != want {
			t.Errorf("%s holds marker %d, want %d", g, c.Log.NextSegment, want)
		}
	}
	for _, stale := range []string{l.Path + ".3", l.Path + ".4", l.Path + ".tmp"} {
		if _, err := os.Stat(stale); !os.IsNotExist(err) {
			t.Errorf("%s should have been pruned", stale)
		}
	}
	c, rep := mustLoad(t, l)
	if c.Log.NextSegment != 5 || rep.From != l.Path {
		t.Errorf("Load: marker %d from %q, want 5 from %q", c.Log.NextSegment, rep.From, l.Path)
	}
}

// TestLineageRetainShrink: saving with a smaller Retain prunes the
// generations the old retention left behind.
func TestLineageRetainShrink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.frsnap")
	wide := sim.Lineage{Path: path, Retain: 5}
	for i := 1; i <= 5; i++ {
		if err := wide.Save(lineageCkpt(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	narrow := sim.Lineage{Path: path, Retain: 2}
	if err := narrow.Save(lineageCkpt(t, 6)); err != nil {
		t.Fatal(err)
	}
	for _, stale := range []string{path + ".2", path + ".3", path + ".4"} {
		if _, err := os.Stat(stale); !os.IsNotExist(err) {
			t.Errorf("%s survived retention shrink", stale)
		}
	}
	if c, err := sim.ReadCheckpoint(path + ".1"); err != nil || c.Log.NextSegment != 5 {
		t.Errorf("ck.1: %v, marker %v, want 5", err, c)
	}
}

// TestLineageLoadFallbackQuarantine: corrupt newer generations are
// quarantined as .corrupt (never deleted) and Load falls back to the
// newest valid snapshot.
func TestLineageLoadFallbackQuarantine(t *testing.T) {
	l := sim.Lineage{Path: filepath.Join(t.TempDir(), "ck.frsnap")}
	for i := 1; i <= 3; i++ {
		if err := l.Save(lineageCkpt(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	flipByte(t, l.Path)
	flipByte(t, l.Path+".1")

	c, rep := mustLoad(t, l)
	if c.Log.NextSegment != 1 {
		t.Errorf("restored marker %d, want 1 (oldest generation)", c.Log.NextSegment)
	}
	if rep.From != l.Path+".2" {
		t.Errorf("restored from %q, want %q", rep.From, l.Path+".2")
	}
	if len(rep.Quarantined) != 2 || rep.Quarantined[0] != l.Path || rep.Quarantined[1] != l.Path+".1" {
		t.Errorf("quarantined %v, want [%s %s]", rep.Quarantined, l.Path, l.Path+".1")
	}
	// Evidence preserved, originals gone.
	for _, q := range rep.Quarantined {
		if _, err := os.Stat(q + sim.CorruptSuffix); err != nil {
			t.Errorf("quarantine file %s%s missing: %v", q, sim.CorruptSuffix, err)
		}
		if _, err := os.Stat(q); !os.IsNotExist(err) {
			t.Errorf("corrupt original %s still present", q)
		}
	}
	if rep.String() == "" {
		t.Error("report with quarantines renders empty")
	}
}

// TestLineageAllCorruptAndEmpty: a lineage whose every file fails
// validation reports ErrLineageCorrupt (all quarantined); an empty one
// reports ErrNoCheckpoint.
func TestLineageAllCorruptAndEmpty(t *testing.T) {
	l := sim.Lineage{Path: filepath.Join(t.TempDir(), "ck.frsnap"), Retain: 2}
	for i := 1; i <= 2; i++ {
		if err := l.Save(lineageCkpt(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	flipByte(t, l.Path)
	flipByte(t, l.Path+".1")
	_, rep, err := l.Load()
	if !errors.Is(err, sim.ErrLineageCorrupt) {
		t.Fatalf("Load on all-corrupt lineage: %v, want ErrLineageCorrupt", err)
	}
	if len(rep.Quarantined) != 2 {
		t.Errorf("quarantined %v, want both generations", rep.Quarantined)
	}

	empty := sim.Lineage{Path: filepath.Join(t.TempDir(), "none.frsnap")}
	if _, _, err := empty.Load(); !errors.Is(err, sim.ErrNoCheckpoint) {
		t.Fatalf("Load on empty lineage: %v, want ErrNoCheckpoint", err)
	}
}

// TestLineageSweepsStaleTmp pins the stale-tmp fix: a crash between
// staging and rename leaves ck.tmp behind; both Load and Save remove it
// rather than leaking it forever, and Load says so in the report.
func TestLineageSweepsStaleTmp(t *testing.T) {
	l := sim.Lineage{Path: filepath.Join(t.TempDir(), "ck.frsnap")}
	if err := l.Save(lineageCkpt(t, 1)); err != nil {
		t.Fatal(err)
	}
	stale := l.Path + ".tmp"
	if err := os.WriteFile(stale, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, rep := mustLoad(t, l)
	if rep.SweptTmp != stale {
		t.Errorf("SweptTmp = %q, want %q", rep.SweptTmp, stale)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale tmp %s survived Load", stale)
	}
	if c.Log.NextSegment != 1 {
		t.Errorf("restore after sweep got marker %d, want 1", c.Log.NextSegment)
	}

	// Save also heals: it must not trip over (or commit) a stale tmp.
	if err := os.WriteFile(stale, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l.Save(lineageCkpt(t, 2)); err != nil {
		t.Fatalf("Save over stale tmp: %v", err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale tmp %s survived Save", stale)
	}
	if c, _ := mustLoad(t, l); c.Log.NextSegment != 2 {
		t.Errorf("marker %d after Save over stale tmp, want 2", c.Log.NextSegment)
	}
}

// TestLineageIgnoresNeighbors: .corrupt quarantine files and unrelated
// suffixes are not mistaken for generations.
func TestLineageIgnoresNeighbors(t *testing.T) {
	l := sim.Lineage{Path: filepath.Join(t.TempDir(), "ck.frsnap")}
	if err := l.Save(lineageCkpt(t, 7)); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{l.Path + sim.CorruptSuffix, l.Path + ".1" + sim.CorruptSuffix, l.Path + ".bak"} {
		if err := os.WriteFile(junk, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, rep := mustLoad(t, l)
	if c.Log.NextSegment != 7 || len(rep.Quarantined) != 0 {
		t.Errorf("neighbors leaked into lineage: marker %d, quarantined %v", c.Log.NextSegment, rep.Quarantined)
	}
	// And further saves must not shift junk around.
	if err := l.Save(lineageCkpt(t, 8)); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{l.Path + sim.CorruptSuffix, l.Path + ".bak"} {
		if _, err := os.Stat(junk); err != nil {
			t.Errorf("neighbor %s disturbed by Save: %v", junk, err)
		}
	}
}

// TestLineageDefaultRetain: Retain <= 0 means DefaultRetain.
func TestLineageDefaultRetain(t *testing.T) {
	l := sim.Lineage{Path: filepath.Join(t.TempDir(), "ck.frsnap")}
	for i := 1; i <= sim.DefaultRetain+2; i++ {
		if err := l.Save(lineageCkpt(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	var kept int
	for i := 0; i < sim.DefaultRetain+2; i++ {
		name := l.Path
		if i > 0 {
			name = fmt.Sprintf("%s.%d", l.Path, i)
		}
		if _, err := os.Stat(name); err == nil {
			kept++
		}
	}
	if kept != sim.DefaultRetain {
		t.Errorf("kept %d generations, want DefaultRetain=%d", kept, sim.DefaultRetain)
	}
}

// TestResumeRunSkipsInconsistentPlatform: the newest generation passes
// its CRC, but its platform's bid counts disagree with its bid columns.
// DecodeCheckpoint refuses it, so Load quarantines it and ResumeRun
// resumes from the generation before it.
func TestResumeRunSkipsInconsistentPlatform(t *testing.T) {
	cfg := crashConfig(9)
	cfg.Days = 4
	s := sim.New(cfg)
	l := sim.Lineage{Path: filepath.Join(t.TempDir(), "ck.frsnap")}
	for range 2 {
		s.Step()
		if err := s.SaveCheckpointLineage(l, sim.LogPosition{}); err != nil {
			t.Fatal(err)
		}
	}
	newest, err := os.ReadFile(l.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(l.Path, hostilePlatformFrames(t, newest)["bid counts oversum"], 0o644); err != nil {
		t.Fatal(err)
	}
	var notes strings.Builder
	d, err := sim.ResumeRun(l, "", &notes)
	if err != nil {
		t.Fatalf("ResumeRun: %v", err)
	}
	if d.From != l.Path+".1" || d.Sim.Day() != 1 {
		t.Fatalf("resumed from %s at day %d, want %s.1 at day 1", d.From, d.Sim.Day(), l.Path)
	}
	if _, err := os.Stat(l.Path + sim.CorruptSuffix); err != nil {
		t.Fatalf("the inconsistent generation was not quarantined: %v (notes: %q)", err, notes.String())
	}
}
