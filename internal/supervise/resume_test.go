package supervise

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// interruptRun starts a supervised run in dir and lets it die for good
// — worker killed after `reports` day reports, no restart budget — so
// the directory holds exactly what a supervisor and worker that lost
// power together leave behind: a torn log and whatever checkpoints had
// been committed.
func interruptRun(t *testing.T, dir string, seed uint64, reports int) Config {
	t.Helper()
	cfg := superviseConfig(dir, seed, t)
	cfg.Kills = []int{reports}
	cfg.MaxRestarts = 0 // the first death is final
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("interrupted run: %v", err)
	}
	cfg.Kills = nil
	cfg.MaxRestarts = 3
	return cfg
}

// TestResumeAfterSupervisorDeath: a run that died mid-flight finishes
// under Resume on the digest of an uninterrupted run, taking its shape
// from the checkpoint rather than from the caller.
func TestResumeAfterSupervisorDeath(t *testing.T) {
	for _, reports := range []int{5, 9, 11} {
		dir := t.TempDir()
		cfg := interruptRun(t, dir, 5, reports)
		want := referenceDigest(t, cfg.Spec)

		cfg.Spawn = pipes(cfg)
		cfg.Resume = true
		cfg.Spec.Shape.Seed, cfg.Spec.Shape.Days = 999, 3 // ignored: the checkpoint is the shape
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("killed after %d reports: resume: %v", reports, err)
		}
		if res.Digest != want {
			t.Errorf("killed after %d reports: resumed digest diverges from an uninterrupted run", reports)
		}
		if res.Restarts != 0 {
			t.Errorf("killed after %d reports: clean resume restarted %d times", reports, res.Restarts)
		}
	}
}

// TestResumeFinishedRun: resuming a run that already completed is not
// an error — it re-simulates the tail after the last checkpoint and
// lands on the same digest and the same log.
func TestResumeFinishedRun(t *testing.T) {
	dir := t.TempDir()
	cfg := superviseConfig(dir, 9, t)
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(LogDir(dir), "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}

	cfg.Spawn = pipes(cfg)
	cfg.Resume = true
	again, err := Run(cfg)
	if err != nil {
		t.Fatalf("resume of a finished run: %v", err)
	}
	if again.Digest != first.Digest || again.Events != first.Events {
		t.Errorf("resumed finished run: digest/events (%d) differ from the first pass (%d)", again.Events, first.Events)
	}
	if got, err := os.ReadFile(filepath.Join(LogDir(dir), "manifest.json")); err != nil || string(got) != string(manifest) {
		t.Errorf("resumed finished run rewrote a different log manifest (err %v)", err)
	}
}

// TestResumeRefusals: Resume needs a checkpoint to stand on, and a
// fresh run must not clobber one.
func TestResumeRefusals(t *testing.T) {
	t.Run("empty-dir", func(t *testing.T) {
		cfg := superviseConfig(t.TempDir(), 9, t)
		cfg.Resume = true
		_, err := Run(cfg)
		if !errors.Is(err, sim.ErrNoCheckpoint) || !strings.Contains(err.Error(), "rerun the job fresh") {
			t.Errorf("resume of an empty directory: %v", err)
		}
	})
	t.Run("died-before-first-checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		cfg := interruptRun(t, dir, 9, 2)
		cfg.Spawn = pipes(cfg)
		cfg.Resume = true
		_, err := Run(cfg)
		if !errors.Is(err, sim.ErrNoCheckpoint) || !strings.Contains(err.Error(), "rerun the job fresh") {
			t.Errorf("resume before any checkpoint: %v", err)
		}
	})
	t.Run("every-checkpoint-corrupt", func(t *testing.T) {
		dir := t.TempDir()
		cfg := interruptRun(t, dir, 9, 10)
		corruptLineage(t, dir)
		cfg.Spawn = pipes(cfg)
		cfg.Resume = true
		_, err := Run(cfg)
		if !errors.Is(err, sim.ErrLineageCorrupt) || !strings.Contains(err.Error(), "rerun the job fresh") {
			t.Errorf("resume over an all-corrupt lineage: %v", err)
		}
	})
	t.Run("fresh-run-over-checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		cfg := interruptRun(t, dir, 9, 6)
		cfg.Spawn = pipes(cfg)
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), "already holds a checkpoint") {
			t.Errorf("fresh run over a checkpoint: %v", err)
		}
	})
}

// corruptLineage overwrites every checkpoint generation in dir with
// bytes no reader accepts.
func corruptLineage(t *testing.T, dir string) {
	t.Helper()
	gens, err := filepath.Glob(CheckpointPath(dir) + "*")
	if err != nil || len(gens) == 0 {
		t.Fatalf("no checkpoints to corrupt in %s (err %v)", dir, err)
	}
	for _, g := range gens {
		if err := os.WriteFile(g, []byte("not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResumedWorkerCannotStartFresh: on a fresh run, a worker that
// finds its lineage dead wipes the log and starts over; on a resumed
// run there is no caller-supplied shape to start over from, so the same
// discovery is fatal instead of a silent restart from day zero.
func TestResumedWorkerCannotStartFresh(t *testing.T) {
	dir := t.TempDir()
	cfg := interruptRun(t, dir, 5, 6)
	ps := pipes(cfg)
	ps.beforeSpawn = func(n int) {
		if n == 2 {
			corruptLineage(t, dir)
		}
	}
	cfg.Spawn = ps
	cfg.Resume = true
	cfg.Kills = []int{1}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "worker fatal") || !strings.Contains(err.Error(), "nothing to resume") {
		t.Errorf("resumed worker over a dead lineage: %v", err)
	}
}

// TestReplayMismatchFailsRun: the run is not complete until the log
// replays to the digest the worker claimed. A scripted worker claiming
// a digest its (valid, finished) log does not reproduce fails the run.
func TestReplayMismatchFailsRun(t *testing.T) {
	dir := t.TempDir()
	cfg := superviseConfig(dir, 9, t)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Spawn = &scriptSpawner{next: func(int) Proc {
		return newDeadProc(`{"t":"hello"}`+"\n"+`{"t":"done","digest":"not-the-digest"}`+"\n", nil)
	}}
	cfg.Resume = true
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "does not match the worker's live digest") {
		t.Errorf("mismatched replay: %v", err)
	}
}
