package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/eventlog"
	"repro/internal/sim"
	"repro/internal/supervise"
	"repro/internal/testutil"
)

func TestRunSummaryAndExport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	dir := t.TempDir()
	evDir := filepath.Join(t.TempDir(), "events")
	var out, errw strings.Builder
	err := run([]string{
		"-scale", "small", "-seed", "7",
		"-days", "60", "-queries", "500", "-regs", "8",
		"-export", dir, "-eventlog", evDir,
	}, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errw.String())
	}
	for _, want := range []string{
		"simulated 60 days", "registrations", "clicks billed", "shutdowns by stage:",
		"datasets written to", "event log written to",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, out.String())
		}
	}
	for _, name := range []string{"customers.jsonl", "activity.jsonl", "detections.jsonl"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("export %s: %v", name, err)
		}
		if len(b) == 0 {
			t.Errorf("export %s is empty", name)
		}
	}

	// The event log on disk replays into the same three analytics streams.
	var impressions, detections int
	if err := eventlog.ScanDir(evDir, eventlog.Filter{}, func(ev *eventlog.Event) error {
		switch ev.Type {
		case eventlog.TypeImpression:
			impressions++
		case eventlog.TypeDetection:
			detections++
		}
		return nil
	}); err != nil {
		t.Fatalf("scan event log: %v", err)
	}
	if impressions == 0 || detections == 0 {
		t.Errorf("event log missing record types: %d impressions, %d detections", impressions, detections)
	}
}

func TestRunRejectsUnknownScale(t *testing.T) {
	var out, errw strings.Builder
	if err := run([]string{"-scale", "galactic"}, &out, &errw); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ck.frsnap")
	// -checkpoint without a positive -checkpoint-every would run to the
	// horizon and never write it.
	for _, args := range [][]string{{"-nope"}, {"-checkpoint", ckpt}, {"-checkpoint", ckpt, "-checkpoint-every", "-3"}} {
		if err := run(append(args, "-scale", "small", "-days", "2"), io.Discard, io.Discard); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("a refused run wrote %s (stat: %v)", ckpt, err)
	}
}

// TestRunRejectsSizesItWouldReplace: a negative size or a NaN rate would
// silently mean its default (all CPUs, the default lineage depth, the
// scale's size), and a lineage of zero checkpoints cannot exist, so each
// is refused before anything is simulated.
func TestRunRejectsSizesItWouldReplace(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "-1"}, {"-checkpoint-retain", "-2"}, {"-checkpoint-retain", "0"},
		{"-days", "-5"}, {"-queries", "-1"}, {"-regs", "-0.5"}, {"-regs", "NaN"}, {"-legit", "-10"},
	} {
		var out strings.Builder
		err := run(append([]string{"-scale", "small"}, args...), &out, io.Discard)
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%q: %v, want a refusal naming %s", args, err, args[0])
		}
		if out.Len() > 0 {
			t.Errorf("%q: a refused run printed %q", args, out.String())
		}
	}
}

func TestRunRejectsResumeWithOverrides(t *testing.T) {
	var out, errw strings.Builder
	err := run([]string{"-resume", "nope.frsnap", "-seed", "9"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "-seed") {
		t.Fatalf("resume with -seed: %v", err)
	}
}

// TestResumeRestoreFailureLeavesNoStagedSegment: a checkpoint that
// passes its CRC but whose state Restore refuses fails the resume after
// the log writer has been reopened; the writer must be closed on the
// way out, so no staged *.evlog.tmp survives in the log directory.
func TestResumeRestoreFailureLeavesNoStagedSegment(t *testing.T) {
	logDir := filepath.Join(t.TempDir(), "log")
	ckpt := filepath.Join(t.TempDir(), "ck.frsnap")
	var sb strings.Builder
	err := run([]string{"-scale", "small", "-seed", "5", "-days", "9", "-queries", "100", "-regs", "6",
		"-eventlog", logDir, "-checkpoint", ckpt, "-checkpoint-every", "4"}, &sb, &sb)
	if err != nil {
		t.Fatalf("checkpointed run: %v\n%s", err, sb.String())
	}
	c, err := sim.ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	c.State.Day = c.State.Config.Days + 1 // outside the horizon: Restore refuses it
	if err := sim.WriteCheckpoint(ckpt, c); err != nil {
		t.Fatal(err)
	}

	err = run([]string{"-resume", ckpt, "-eventlog", logDir}, &sb, &sb)
	if err == nil || !strings.Contains(err.Error(), "restore") {
		t.Fatalf("resume from an unrestorable checkpoint: %v", err)
	}
	tmps, err := filepath.Glob(filepath.Join(logDir, "*.evlog"+eventlog.TmpSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) > 0 {
		t.Errorf("failed resume left staged segments behind: %v", tmps)
	}
}

// TestRunWorkersAndProfiles covers the serving-parallelism and profiling
// flags: a multi-worker run must export byte-identical datasets to a
// one-worker run of the same seed and write a byte-identical checkpoint
// (a checkpoint does not store the worker count), a checkpoint resumed
// with a different -workers value must land on the same datasets and
// report the same whole event log, and the pprof flags must leave
// non-empty profile files behind.
func TestRunWorkersAndProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several simulations")
	}
	base := []string{"-scale", "small", "-seed", "7", "-days", "40", "-queries", "400", "-regs", "8"}
	exportOf := func(dir string) map[string]string {
		t.Helper()
		out := make(map[string]string)
		for _, name := range []string{"customers.jsonl", "activity.jsonl", "detections.jsonl"} {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			out[name] = string(b)
		}
		return out
	}

	// The one-worker run also logs, and checkpoints mid-run at day 20.
	seqOut, logDir := t.TempDir(), filepath.Join(t.TempDir(), "log")
	ckpt := filepath.Join(t.TempDir(), "ck.frsnap")
	var sb strings.Builder
	if err := run(append(base[:len(base):len(base)], "-workers", "1", "-export", seqOut, "-eventlog", logDir,
		"-checkpoint", ckpt, "-checkpoint-every", "20"), &sb, &sb); err != nil {
		t.Fatalf("one-worker run: %v\n%s", err, sb.String())
	}
	want := exportOf(seqOut)
	logLine := regexp.MustCompile(`event log written .*`)
	wantLog := logLine.FindString(sb.String())

	parOut, parLog := t.TempDir(), filepath.Join(t.TempDir(), "log")
	parCkpt := filepath.Join(t.TempDir(), "ck.frsnap")
	cpu := filepath.Join(t.TempDir(), "cpu.pprof")
	mem := filepath.Join(t.TempDir(), "mem.pprof")
	sb.Reset()
	if err := run(append(base[:len(base):len(base)],
		"-workers", "3", "-export", parOut, "-eventlog", parLog,
		"-checkpoint", parCkpt, "-checkpoint-every", "20",
		"-cpuprofile", cpu, "-memprofile", mem), &sb, &sb); err != nil {
		t.Fatalf("parallel run: %v\n%s", err, sb.String())
	}
	for name, w := range want {
		if got := exportOf(parOut)[name]; got != w {
			t.Errorf("%s differs between -workers 1 and -workers 3 runs", name)
		}
	}
	seqFrame, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	parFrame, err := os.ReadFile(parCkpt)
	if err != nil {
		t.Fatal(err)
	}
	if string(seqFrame) != string(parFrame) {
		t.Errorf("the -workers 1 and -workers 3 checkpoints differ (%d and %d bytes)", len(seqFrame), len(parFrame))
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}

	// The checkpoint resumes with a different worker count — the one run
	// parameter that may legally change across a resume — and reports the
	// whole log, not this process's share of it.
	resOut := t.TempDir()
	sb.Reset()
	if err := run([]string{"-resume", ckpt, "-workers", "2", "-export", resOut, "-eventlog", logDir}, &sb, &sb); err != nil {
		t.Fatalf("resume with -workers: %v\n%s", err, sb.String())
	}
	if got := logLine.FindString(sb.String()); wantLog == "" || got != wantLog {
		t.Errorf("resumed run reports %q, first run %q", got, wantLog)
	}
	for name, w := range want {
		if got := exportOf(resOut)[name]; got != w {
			t.Errorf("%s differs after resuming with a different worker count", name)
		}
	}
}

// TestCrashChildProcess is the re-exec helper for the subprocess-kill
// harness below: it runs fraudsim's real entry point so the parent can
// SIGKILL an actual process mid-run.
func TestCrashChildProcess(t *testing.T) {
	if os.Getenv("FRAUDSIM_CRASH_CHILD") != "1" {
		t.Skip("re-exec helper for TestCrashSubprocessKillResume")
	}
	if err := run(strings.Fields(os.Getenv("FRAUDSIM_CRASH_ARGS")), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestCrashSubprocessKillResume kills a real checkpointing fraudsim
// process with SIGKILL — no deferred cleanup, no flushes, a genuinely
// torn event log — then resumes it in-process and checks the datasets
// and the replayed event log match an uninterrupted run exactly.
func TestCrashSubprocessKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations and a subprocess")
	}
	base := []string{"-scale", "small", "-seed", "11", "-days", "60", "-queries", "400", "-regs", "8"}

	// Uninterrupted reference, in-process.
	refOut, refLog := t.TempDir(), filepath.Join(t.TempDir(), "log")
	var sb strings.Builder
	if err := run(append(base[:len(base):len(base)], "-eventlog", refLog, "-export", refOut), &sb, &sb); err != nil {
		t.Fatalf("reference run: %v\n%s", err, sb.String())
	}

	// Checkpointing child process, killed shortly after its first
	// checkpoint lands.
	logDir := filepath.Join(t.TempDir(), "log")
	ckpt := filepath.Join(t.TempDir(), "ck.frsnap")
	childArgs := append(base[:len(base):len(base)],
		"-eventlog", logDir, "-checkpoint", ckpt, "-checkpoint-every", "10")
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashChildProcess$")
	cmd.Env = append(os.Environ(),
		"FRAUDSIM_CRASH_CHILD=1",
		"FRAUDSIM_CRASH_ARGS="+strings.Join(childArgs, " "))
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("child never wrote a checkpoint")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(25 * time.Millisecond) // let it get back into the thick of a day
	cmd.Process.Kill()                // SIGKILL: nothing gets to clean up
	cmd.Wait()

	// Resume in-process from whatever the kill left behind.
	resOut := t.TempDir()
	sb.Reset()
	err := run([]string{"-resume", ckpt, "-eventlog", logDir, "-export", resOut}, &sb, &sb)
	if err != nil {
		t.Fatalf("resume: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "resumed from") {
		t.Fatalf("resume output:\n%s", sb.String())
	}

	for _, name := range []string{"customers.jsonl", "activity.jsonl", "detections.jsonl"} {
		ref, err := os.ReadFile(filepath.Join(refOut, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(resOut, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(ref) != string(got) {
			t.Errorf("%s differs between killed+resumed and uninterrupted runs", name)
		}
	}

	// The recovered log replays to the same analytics as the reference's.
	cfg := sim.SmallConfig()
	refCol, err := dataset.ReplayDir(refLog, cfg.Windows, cfg.SampleWindow)
	if err != nil {
		t.Fatal(err)
	}
	gotCol, err := dataset.ReplayDir(logDir, cfg.Windows, cfg.SampleWindow)
	if err != nil {
		t.Fatalf("replay recovered log: %v", err)
	}
	if a, b := testutil.CollectorDigests(refCol), testutil.CollectorDigests(gotCol); a != b {
		t.Errorf("replayed logs diverge:\n ref %+v\n got %+v", a, b)
	}
}

// TestSupervisedWorkerChild is the re-exec target of the test below:
// run with worker flags after "--", this "test" is a supervised worker
// speaking the protocol on stdout. It exits the process directly so the
// test framework's PASS banner never lands in the protocol stream.
func TestSupervisedWorkerChild(t *testing.T) {
	if flag.NArg() == 0 {
		t.Skip("re-exec helper for TestSupervisedLogByteIdenticalToFraudsim")
	}
	sp, err := supervise.ParseWorkerArgs(flag.Args())
	if err == nil {
		err = supervise.RunWorker(sp, os.Stdin, os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// TestSupervisedLogByteIdenticalToFraudsim: a supervised run whose
// worker — a real subprocess — is SIGKILLed twice and restarted from
// its checkpoints leaves the very log an undisturbed `fraudsim -eventlog
// -checkpoint-every N -sync rotate` run of the same shape writes: the
// same manifest (segment names, sizes, CRC32Cs) over the same segment
// bytes. Both run sim.Durable.RunDays on the Config of one sim.Shape, so
// one seed suffices: what remains to prove is that the worker adds
// nothing to the log and recovery loses nothing from it.
func TestSupervisedLogByteIdenticalToFraudsim(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations and worker subprocesses")
	}
	refDir := t.TempDir()
	refLog := filepath.Join(refDir, "log")
	var sb strings.Builder
	err := run([]string{"-scale", "small", "-seed", "42", "-days", "12", "-queries", "200", "-regs", "8",
		"-eventlog", refLog, "-checkpoint", filepath.Join(refDir, "run.frsnap"),
		"-checkpoint-every", "4", "-sync", "rotate"}, &sb, &sb)
	if err != nil {
		t.Fatalf("fraudsim reference: %v\n%s", err, sb.String())
	}

	dir := t.TempDir()
	res, err := supervise.Run(supervise.Config{
		Spec: supervise.WorkerSpec{
			Dir:             dir,
			Shape:           sim.Shape{Scale: "small", Seed: 42, Days: 12, Queries: 200, Regs: 8},
			CheckpointEvery: 4, Retain: sim.DefaultRetain, Sync: "rotate",
		},
		Spawn: &supervise.ExecSpawner{
			Command:  os.Args[0],
			BaseArgs: []string{"-test.run=TestSupervisedWorkerChild$", "--"},
			Stderr:   io.Discard,
		},
		HBTimeout:   supervise.DefaultHBTimeout,
		MaxRestarts: 4,
		Seed:        42,
		// One self-inflicted SIGKILL within the first incarnation's
		// first eight messages, one from the supervisor after eight
		// day reports: before and after the first checkpoint.
		Faults: "kill@msg=4..8",
		Kills:  []int{8},
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if res.Restarts != 2 {
		t.Errorf("restarts = %d, want 2", res.Restarts)
	}

	segs, err := eventlog.Segments(refLog)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range append(segs, eventlog.ManifestName) {
		name := filepath.Base(seg)
		want, err := os.ReadFile(filepath.Join(refLog, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(supervise.LogDir(dir), name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s differs between the killed-and-restarted supervised run and fraudsim", name)
		}
	}
}
