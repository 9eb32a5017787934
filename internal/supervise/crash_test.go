package supervise

import (
	"flag"
	"fmt"
	"io"
	"os"
	"testing"
)

// TestWorkerChild is the re-exec target for the subprocess crash
// harness: run with worker flags after "--", this "test" is actually the
// worker speaking the protocol on stdout. It exits the process directly
// so the test framework's PASS banner never lands in the protocol
// stream.
func TestWorkerChild(t *testing.T) {
	if flag.NArg() == 0 {
		t.Skip("re-exec target; runs only as a spawned worker subprocess")
	}
	sp, err := ParseWorkerArgs(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(3)
	}
	if err := RunWorker(sp, os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// TestCrashRecoverySubprocess is the real thing: the worker as a genuine
// OS process carrying a seeded kill-at-Nth-message fault profile that
// SIGKILLs it mid-protocol, plus a supervisor-side SIGKILL of the
// restarted incarnation. The supervisor must notice each death, restart
// the worker through the checkpoint recovery path, and still finish on
// the digest of sim.New(cfg).Run().
//
// Both kills are certain, not probabilistic: the self-kill lands within
// the first incarnation's first eight messages (hello + 12 day reports
// precede its done report), and whichever checkpoint the second
// incarnation restarts from, it still has more days to report than the
// supervisor's kill point — eight reports in all — leaves it.
func TestCrashRecoverySubprocess(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess harness: skipped in -short mode")
	}
	for _, seed := range []uint64{42, 43, 44} {
		dir := t.TempDir()
		spec := testSpec(dir, seed)
		cfg := Config{
			Spec: spec,
			Spawn: &ExecSpawner{
				Command:  os.Args[0],
				BaseArgs: []string{"-test.run=TestWorkerChild$", "--"},
				Stderr:   io.Discard,
			},
			HBTimeout:   DefaultHBTimeout,
			MaxRestarts: 4,
			Seed:        seed,
			Faults:      "kill@msg=4..8",
			Kills:       []int{8},
			Logf:        t.Logf,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Digest != referenceDigest(t, spec) {
			t.Errorf("seed %d: supervised digest diverges from sim.New(cfg).Run() after SIGKILLs", seed)
		}
		if res.Restarts != 2 {
			t.Errorf("seed %d: restarts = %d, want 2 (one self-kill, one supervisor kill)", seed, res.Restarts)
		}
	}
}
