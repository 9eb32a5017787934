package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/supervise"
)

// The disaster-recovery proof: a REAL supervisor process — not a
// goroutine, not a simulated exit — is SIGKILLed together with its
// worker (the whole process group) once the run has committed a
// checkpoint at or past a seeded day, then the run is finished with
// `-resume` and must print the digest of an uninterrupted run of the
// same shape. This is the supervised analogue of fraudsim's
// TestCrashSubprocessKillResume: kill -9 at any point must cost nothing
// but wall-clock time.

// resumeFlags are the non-shape flags a resume repeats so the resumed
// worker checkpoints on the same cadence as the killed one.
var resumeFlags = []string{"-checkpoint-every", "3", "-sync", "none"}

// startSupervisor launches the real CLI as a subprocess in its own
// process group.
func startSupervisor(t *testing.T, args ...string) (*exec.Cmd, *strings.Builder, chan error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FRAUDSUPERVISE_SUPERVISOR=1", "FRAUDSUPERVISE_CLI=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	combined := &strings.Builder{}
	cmd.Stdout = combined
	cmd.Stderr = combined
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	return cmd, combined, exited
}

// killGroupAt polls the run's newest checkpoint — a pure read — until
// it records killDay or later, then SIGKILLs the supervisor's entire
// process group: supervisor and worker die together, exactly like a box
// losing power. killDay < 0 kills as soon as the worker has started
// logging, before any checkpoint. It reports false if the run completed
// before the kill fired.
func killGroupAt(t *testing.T, cmd *exec.Cmd, combined *strings.Builder, exited chan error, dir string, killDay int) bool {
	t.Helper()
	pgid := cmd.Process.Pid
	deadline := time.After(90 * time.Second)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-exited:
			// Finished before the kill fired. Make sure the group is gone
			// (a worker outliving a finished supervisor would leak).
			syscall.Kill(-pgid, syscall.SIGKILL)
			t.Logf("supervisor finished before the kill at day %d:\n%s", killDay, combined.String())
			return false
		case <-deadline:
			syscall.Kill(-pgid, syscall.SIGKILL)
			<-exited
			t.Fatalf("run never reached a checkpoint at day %d:\n%s", killDay, combined.String())
		case <-tick.C:
			if killDay < 0 {
				if _, err := os.Stat(supervise.LogDir(dir)); err != nil {
					continue
				}
			} else if info, err := sim.InspectCheckpoint(supervise.CheckpointPath(dir)); err != nil || !info.Valid || info.Day < killDay {
				continue // not committed yet, or mid-rename
			}
			if err := syscall.Kill(-pgid, syscall.SIGKILL); err != nil {
				t.Fatalf("killing process group %d: %v", pgid, err)
			}
			<-exited
			return true
		}
	}
}

// TestCrashSupervisorResume is the headline harness behind
// `make crash-supervise`: for each seed and seeded kill day, SIGKILL the
// live supervisor's process group once a checkpoint reaches that day,
// resume with the CLI, and require the final digest and the log to match
// an unsupervised run.
func TestCrashSupervisorResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and murders real supervisor subprocesses")
	}
	t.Setenv("FRAUDSUPERVISE_CLI", "1")

	for i, seedN := range []uint64{42, 43, 44} {
		seed := fmt.Sprint(seedN)
		want := referenceFingerprint(t, seedN)
		killDay := []int{3, 6, 9}[i]
		t.Run(fmt.Sprintf("seed%s/killday%d", seed, killDay), func(t *testing.T) {
			dir := t.TempDir()
			cmd, combined, exited := startSupervisor(t, append(shapeFlags(seed), "-dir", dir)...)
			if !killGroupAt(t, cmd, combined, exited, dir, killDay) {
				t.Fatalf("run completed before a day-%d checkpoint could be hit; pick an earlier kill day", killDay)
			}
			got, restarts := runCLI(t, append([]string{"-resume", dir}, resumeFlags...)...)
			if got != shortDigest(want) || restarts != "0" {
				t.Errorf("resumed run printed digest %s, restarts %s:\n want %s, 0", got, restarts, shortDigest(want))
			}
			checkLog(t, dir, want)
		})
	}
}

// TestCrashSupervisorDoubleKill: the supervisor is killed, resumed,
// killed again mid-resume, and resumed again — the lineage has to
// survive repeated disasters, not just one.
func TestCrashSupervisorDoubleKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and murders real supervisor subprocesses")
	}
	t.Setenv("FRAUDSUPERVISE_CLI", "1")
	want := referenceFingerprint(t, 42)

	dir := t.TempDir()
	cmd, combined, exited := startSupervisor(t, append(shapeFlags("42"), "-dir", dir)...)
	if !killGroupAt(t, cmd, combined, exited, dir, 3) {
		t.Fatal("run completed before the first kill")
	}
	// Second incarnation: a real `-resume` supervisor subprocess, killed
	// at a later checkpoint. Finishing before the kill is fine — a
	// finished run resumes to the same digest.
	cmd, combined, exited = startSupervisor(t, append([]string{"-resume", dir}, resumeFlags...)...)
	if !killGroupAt(t, cmd, combined, exited, dir, 9) {
		t.Log("second incarnation finished before its kill")
	}
	got, _ := runCLI(t, append([]string{"-resume", dir}, resumeFlags...)...)
	if got != shortDigest(want) {
		t.Errorf("digest diverges after two supervisor kills:\n want %s\n got  %s", shortDigest(want), got)
	}
	checkLog(t, dir, want)
}

// TestCrashSupervisorBeforeFirstCheckpoint: a run that lost power
// before committing any checkpoint has nothing to resume; -resume must
// say so, and say what to do instead.
func TestCrashSupervisorBeforeFirstCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and murders real supervisor subprocesses")
	}
	t.Setenv("FRAUDSUPERVISE_CLI", "1")

	dir := t.TempDir()
	// No checkpoint cadence at all, so the kill cannot race one.
	args := append(shapeFlags("42"), "-dir", dir, "-checkpoint-every", "0")
	cmd, combined, exited := startSupervisor(t, args...)
	if !killGroupAt(t, cmd, combined, exited, dir, -1) {
		t.Fatal("run completed before the kill")
	}
	var out, errw strings.Builder
	err := run(append([]string{"-resume", dir}, resumeFlags...), &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "nothing to resume") || !strings.Contains(err.Error(), "rerun the job fresh") {
		t.Fatalf("resume with no checkpoint: %v", err)
	}
}
