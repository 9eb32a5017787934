package main

import (
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sim"
	"repro/internal/supervise"
)

// TestMain lets the test binary stand in for the fraudsupervise binary:
// the supervisor spawns its worker via os.Executable() + "worker" argv,
// and with the gate variable set (inherited from the parent test
// process) we dispatch straight into the real CLI entry point — so the
// end-to-end tests exercise the exact argv round trip production uses.
func TestMain(m *testing.M) {
	if os.Getenv("FRAUDSUPERVISE_CLI") == "1" && len(os.Args) > 1 && os.Args[1] == "worker" {
		main()
		os.Exit(0)
	}
	// FRAUDSUPERVISE_SUPERVISOR turns the test binary into the full CLI
	// — supervisor and all — so the SIGKILL harness can murder a real
	// supervisor process mid-run (see crash_test.go).
	if os.Getenv("FRAUDSUPERVISE_SUPERVISOR") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// shapeFlags is the run shape the CLI tests share, at the given seed.
func shapeFlags(seed string) []string {
	return []string{
		"-scale", "small", "-seed", seed,
		"-days", "14", "-queries", "200", "-regs", "6",
		"-checkpoint-every", "3", "-sync", "none",
	}
}

// referenceFingerprint is the full digest of the shape run with no log,
// no checkpoints and no supervisor — what `fraudsim` with the same shape
// flags computes.
func referenceFingerprint(t *testing.T, seed uint64) string {
	t.Helper()
	cfg := sim.SmallConfig()
	cfg.Seed, cfg.Days, cfg.QueriesPerDay, cfg.RegistrationsPerDay = seed, 14, 200, 6
	return supervise.Fingerprint(sim.New(cfg).Run().Collector)
}

var (
	digestRe   = regexp.MustCompile(`digest \(live == replayed log\): (.+)`)
	restartsRe = regexp.MustCompile(`restarts: (\d+)`)
)

// runCLI runs the CLI in-process (the worker is still a real subprocess
// via the FRAUDSUPERVISE_CLI gate) and returns the printed digest and
// restart count.
func runCLI(t *testing.T, args ...string) (digest, restarts string) {
	t.Helper()
	var out, errw strings.Builder
	if err := run(args, &out, &errw); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errw.String())
	}
	d := digestRe.FindStringSubmatch(out.String())
	r := restartsRe.FindStringSubmatch(out.String())
	if d == nil || r == nil {
		t.Fatalf("no digest/restarts line in output:\n%s", out.String())
	}
	return d[1], r[1]
}

// checkLog requires the finished log in dir to replay to the reference
// fingerprint in full (the printed digest is abbreviated).
func checkLog(t *testing.T, dir, want string) {
	t.Helper()
	cfg := sim.SmallConfig()
	col, err := dataset.ReplayDir(supervise.LogDir(dir), cfg.Windows, cfg.SampleWindow)
	if err != nil {
		t.Fatal(err)
	}
	if got := supervise.Fingerprint(col); got != want {
		t.Errorf("log in %s replays to a different digest than an unsupervised run", dir)
	}
}

// TestCLIEndToEnd runs the full CLI over a real worker subprocess for
// three seeds — undisturbed, and with the worker SIGKILLed at two
// points, once by its own fault profile and once by the supervisor —
// and requires both to print the digest of the unsupervised run, with
// the restarts reported.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	t.Setenv("FRAUDSUPERVISE_CLI", "1")
	for _, seedN := range []uint64{42, 43, 44} {
		seed := strconv.FormatUint(seedN, 10)
		want := referenceFingerprint(t, seedN)

		cleanDir := t.TempDir()
		clean, restarts := runCLI(t, append(shapeFlags(seed), "-dir", cleanDir)...)
		if clean != shortDigest(want) || restarts != "0" {
			t.Errorf("seed %s: clean run printed digest %s, restarts %s", seed, clean, restarts)
		}
		checkLog(t, cleanDir, want)

		killedDir := t.TempDir()
		killed, restarts := runCLI(t, append(shapeFlags(seed), "-dir", killedDir,
			"-faults", "kill@msg=4..8", "-kill", "9", "-max-restarts", "3")...)
		if killed != clean || restarts != "2" {
			t.Errorf("seed %s: killed run printed digest %s (clean %s), restarts %s (want 2)", seed, killed, clean, restarts)
		}
		checkLog(t, killedDir, want)
	}
}

// TestCLIZeroRestartsMeansNone: -max-restarts 0 is a budget of no
// restarts, not the default, so a worker the supervisor kills after its
// fourth day report ends the run there.
func TestCLIZeroRestartsMeansNone(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a worker subprocess")
	}
	t.Setenv("FRAUDSUPERVISE_CLI", "1")
	var out, errw strings.Builder
	err := run(append(shapeFlags("42"), "-dir", t.TempDir(), "-max-restarts", "0", "-kill", "4"), &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "worker died 1 times") {
		t.Fatalf("-max-restarts 0 -kill 4: %v, want the run to fail at the kill\nstdout: %s", err, out.String())
	}
}

func TestCLIRequiresDir(t *testing.T) {
	var out, errw strings.Builder
	if err := run([]string{"-seed", "2"}, &out, &errw); err == nil || !strings.Contains(err.Error(), "-dir") {
		t.Fatalf("missing -dir accepted: %v", err)
	}
}

func TestCLIRejectsResumeWithOverrides(t *testing.T) {
	var out, errw strings.Builder
	err := run([]string{"-resume", t.TempDir(), "-seed", "9", "-days", "3", "-legit", "5"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "-days, -legit, -seed") {
		t.Fatalf("resume with shape flags: %v", err)
	}
}

func TestCLIRejectsNegativeCheckpointEvery(t *testing.T) {
	var out, errw strings.Builder
	err := run([]string{"-dir", t.TempDir(), "-checkpoint-every", "-1"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint-every") {
		t.Fatalf("negative -checkpoint-every: %v", err)
	}
}

// TestCLIRejectsSizesItWouldReplace: a heartbeat timeout whose tenth is
// zero would make every worker panic on its ticker, and a negative size
// would silently mean a default (or no restarts); each is refused before
// a worker is spawned.
func TestCLIRejectsSizesItWouldReplace(t *testing.T) {
	for _, args := range [][]string{
		{"-hb-timeout", "5ns"}, {"-hb-timeout", "0s"}, {"-hb-timeout", "-1s"},
		{"-max-restarts", "-1"}, {"-checkpoint-retain", "-1"}, {"-checkpoint-retain", "0"},
		{"-days", "-1"}, {"-regs", "NaN"},
	} {
		dir := t.TempDir()
		var out strings.Builder
		err := run(append([]string{"-dir", dir, "-scale", "small"}, args...), &out, io.Discard)
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%q: %v, want a refusal naming %s", args, err, args[0])
		}
		if entries, _ := os.ReadDir(dir); len(entries) > 0 || out.Len() > 0 {
			t.Errorf("%q: a refused run spawned a worker (dir holds %d entries, printed %q)", args, len(entries), out.String())
		}
	}
}

func TestParseKillPoints(t *testing.T) {
	got, err := parseKillPoints("5,12")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 5 || got[1] != 12 {
		t.Errorf("parseKillPoints = %v", got)
	}
	if k, err := parseKillPoints(""); err != nil || k != nil {
		t.Errorf("empty spec: %v, %v", k, err)
	}
	for _, bad := range []string{"x", "0", "5,z", "5,5", "9,3", "1@5"} {
		if _, err := parseKillPoints(bad); err == nil {
			t.Errorf("parseKillPoints(%q) accepted", bad)
		}
	}
}
