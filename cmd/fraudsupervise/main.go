// Command fraudsupervise runs the simulation's durable run — what
// `fraudsim -eventlog DIR/log -checkpoint DIR/run.frsnap
// -checkpoint-every N` writes — as one supervised worker process
// (internal/supervise): the supervisor spawns the worker, watches its
// heartbeats and day reports, restarts it from its last checkpoint when
// it dies or goes silent, and finishes by replaying the log and proving
// it reproduces the worker's live digest. The shape flags (-scale
// through -legit) are fraudsim's own; with -checkpoint-every 0 a worker
// that dies starts over.
//
// Usage:
//
//	fraudsupervise -dir DIR [-scale small|medium|full]
//	               [-seed N] [-days N] [-queries N] [-regs F] [-legit N]
//	               [-checkpoint-every N] [-checkpoint-retain K]
//	               [-sync none|rotate|interval]
//	               [-hb-timeout D] [-max-restarts N] [-v]
//	               [-faults SPEC] [-kill N[,N...]]
//
//	fraudsupervise -resume DIR [-checkpoint-every N] [-checkpoint-retain K]
//	               [-sync MODE] [-hb-timeout D] [-max-restarts N] [-v]
//
//	fraudsupervise worker <worker flags>   (internal; spawned by the supervisor)
//
// A run whose supervisor dies — SIGKILL, power loss, the whole box —
// restarts with -resume DIR: the run's shape comes from the newest valid
// checkpoint in DIR (shape flags cannot be overridden, exactly like
// `fraudsim -resume`), the log is healed and rewound to that checkpoint,
// and the finished run's digest is byte-identical to an uninterrupted
// one. A run that died before its first checkpoint has nothing to resume
// and must be rerun fresh. Everything else may be changed on resume;
// keep -checkpoint-every if the log's segment boundaries should match an
// uninterrupted run's too.
//
// The chaos levers: -faults attaches a process fault profile
// (faultinject.ParseProcFaults syntax, e.g. "kill@msg=5..40") to the
// worker's first incarnation; -kill makes the supervisor SIGKILL the
// worker after its Nth day report. Either way the run must still finish
// on the digest of an undisturbed run — that is the whole point.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/supervise"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		sp, err := supervise.ParseWorkerArgs(os.Args[2:])
		if err == nil {
			err = supervise.RunWorker(sp, os.Stdin, os.Stdout, os.Stderr)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fraudsupervise", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := supervise.DefaultSpec()
	spec.Bind(fs)
	hbTimeout := fs.Duration("hb-timeout", supervise.DefaultHBTimeout, "silence after which the worker is declared dead (it heartbeats every tenth of this)")
	maxRestarts := fs.Int("max-restarts", supervise.DefaultMaxRestarts, "restarts allowed before the run fails (0 = the first death is final)")
	verbose := fs.Bool("v", false, "print supervisor narration")
	faults := fs.String("faults", "", "fault profile of the worker's first incarnation (chaos testing)")
	killSpecs := fs.String("kill", "", "supervisor kill points, NREPORTS[,NREPORTS...] (chaos testing)")
	resume := fs.String("resume", "", "resume an interrupted run from its working directory")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Sizes the supervisor would replace with a default or crash on are
	// refused before anything is spawned.
	if err := spec.Check(); err != nil {
		return fmt.Errorf("fraudsupervise: %w", err)
	}
	switch {
	case *maxRestarts < 0:
		return fmt.Errorf("fraudsupervise: -max-restarts %d is negative", *maxRestarts)
	case *hbTimeout/10 <= 0:
		return fmt.Errorf("fraudsupervise: -hb-timeout %v is too short (the worker heartbeats every tenth of it)", *hbTimeout)
	}
	// The run's shape lives in the checkpoint; flags that would change
	// the trajectory are refused, exactly like `fraudsim -resume`.
	if err := sim.RefuseOnResume(fs, "dir"); err != nil {
		return fmt.Errorf("fraudsupervise: %w", err)
	}
	if *resume != "" {
		spec.Dir = *resume
	} else if spec.Dir == "" {
		return fmt.Errorf("fraudsupervise: -dir DIR is required")
	} else if err := os.MkdirAll(spec.Dir, 0o755); err != nil {
		return err
	}

	kills, err := parseKillPoints(*killSpecs)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cfg := supervise.Config{
		Spec:        spec,
		Spawn:       &supervise.ExecSpawner{Command: exe, BaseArgs: []string{"worker"}, Stderr: stderr},
		HBTimeout:   *hbTimeout,
		MaxRestarts: *maxRestarts,
		Seed:        spec.Shape.Seed,
		Resume:      *resume != "",
		Faults:      *faults,
		Kills:       kills,
	}
	if *verbose {
		cfg.Logf = func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	}

	res, err := supervise.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "supervised run completed in %s\n", res.Elapsed.Round(10*time.Millisecond))
	fmt.Fprintf(stdout, "event log: %s (%d events)\n", supervise.LogDir(spec.Dir), res.Events)
	fmt.Fprintf(stdout, "restarts: %d\n", res.Restarts)
	fmt.Fprintf(stdout, "digest (live == replayed log): %s\n", shortDigest(res.Digest))
	return nil
}

// shortDigest compresses the JSON fingerprint for terminal output.
func shortDigest(d string) string {
	if len(d) <= 96 {
		return d
	}
	return d[:96] + "..."
}

// parseKillPoints parses "5,12": day-report counts, ascending.
func parseKillPoints(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 || (len(out) > 0 && n <= out[len(out)-1]) {
			return nil, fmt.Errorf("fraudsupervise: bad -kill report count %q (want ascending positive integers)", part)
		}
		out = append(out, n)
	}
	return out, nil
}
