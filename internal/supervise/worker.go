package supervise

// The worker: the durable run `fraudsim -eventlog DIR/log -checkpoint
// DIR/run.frsnap -checkpoint-every N` performs, narrated over the
// protocol. It writes one event log and one checkpoint lineage under
// its working directory through the day loop fraudsim runs
// (sim.Durable.RunDays), so the log it leaves is the log fraudsim would
// have left, byte for byte.
//
// Crash tolerance is the §6 recovery path: a restarted worker restores
// the newest valid checkpoint, heals the torn log tail, rewinds the log
// to the checkpoint's segment and re-runs the tail days — rewriting
// identical segments, since the trajectory is deterministic. A worker
// that dies before its first checkpoint wipes the log and starts over.

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eventlog"
	"repro/internal/faultinject"
	"repro/internal/sim"
	"repro/internal/simclock"
)

// WorkerSpec is the flag-shaped description of the worker; the
// supervisor serializes it across the process boundary with Args and
// the worker entry point rebuilds it with ParseWorkerArgs, so both sides
// agree on the run by construction.
type WorkerSpec struct {
	// Dir is the run's working directory; the worker owns LogDir(Dir)
	// and the lineage anchored at CheckpointPath(Dir).
	Dir string

	// Shape is the run shape. One with an empty Scale is none: the shape
	// is the Config of the checkpoint in Dir, and a worker that finds
	// nothing to restore fails instead of starting over (how a resumed
	// run's workers are spawned).
	Shape sim.Shape

	// CheckpointEvery is the checkpoint interval in simulated days; 0
	// means no checkpoints, and a dead worker starts over.
	CheckpointEvery int
	// Retain is the checkpoint-lineage depth (last K checkpoints kept;
	// at least 1, see Check). It does not affect the trajectory, only how
	// much corruption a restart survives.
	Retain int
	Sync   string // event log fsync policy: none, rotate, interval

	// Faults is a faultinject.ParseProcFaults spec ("" = none) seeded by
	// FaultSeed — chaos harness hooks, never set in normal operation.
	Faults    string
	FaultSeed uint64

	// hbInterval is the heartbeat interval, Config.HBTimeout/10: set by
	// Run, carried to the worker as -hb-interval.
	hbInterval time.Duration
}

// LogDir returns the event-log directory of the run in dir.
func LogDir(dir string) string { return filepath.Join(dir, "log") }

// CheckpointPath returns the anchor of the run's checkpoint lineage.
func CheckpointPath(dir string) string { return filepath.Join(dir, "run.frsnap") }

func (sp WorkerSpec) lineage() sim.Lineage {
	return sim.Lineage{Path: CheckpointPath(sp.Dir), Retain: sp.Retain}
}

// DefaultSpec is the spec of a supervised run given no flags.
func DefaultSpec() WorkerSpec {
	return WorkerSpec{Shape: sim.DefaultShape(), CheckpointEvery: 8, Retain: sim.DefaultRetain,
		Sync: "rotate", hbInterval: 500 * time.Millisecond}
}

// Bind defines the spec's flags on fs, defaulting to sp's values: the
// ones fraudsupervise takes from its user, which leaves out the fault
// hooks.
func (sp *WorkerSpec) Bind(fs *flag.FlagSet) {
	fs.StringVar(&sp.Dir, "dir", sp.Dir, "run working directory (DIR/log + DIR/run.frsnap*; required)")
	sp.Shape.Bind(fs)
	fs.IntVar(&sp.CheckpointEvery, "checkpoint-every", sp.CheckpointEvery, "checkpoint every N simulated days (0 = never: a dead worker starts over)")
	fs.IntVar(&sp.Retain, "checkpoint-retain", sp.Retain, "checkpoint lineage depth (last K kept)")
	fs.StringVar(&sp.Sync, "sync", sp.Sync, "event log fsync policy: none, rotate, or interval")
}

// workerFlags is the worker's flag set: Bind's flags, the heartbeat
// interval and the fault hooks.
func (sp *WorkerSpec) workerFlags() *flag.FlagSet {
	fs := flag.NewFlagSet("supervised-worker", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sp.Bind(fs)
	fs.DurationVar(&sp.hbInterval, "hb-interval", sp.hbInterval, "worker heartbeat interval")
	fs.StringVar(&sp.Faults, "faults", sp.Faults, "process fault profile (chaos testing)")
	fs.Uint64Var(&sp.FaultSeed, "fault-seed", sp.FaultSeed, "fault profile seed")
	return fs
}

// Args renders the spec as the canonical worker flag list (the inverse
// of ParseWorkerArgs).
func (sp WorkerSpec) Args() []string {
	var args []string
	sp.workerFlags().VisitAll(func(f *flag.Flag) { args = append(args, "-"+f.Name, f.Value.String()) })
	return args
}

// Check refuses checkpoint sizes the worker would replace with a default
// or could not honour: a negative interval, and a lineage depth below
// one. Run checks its spec with it before it loads a lineage or spawns
// anything, fraudsupervise its flags before it makes its directory, and
// ParseWorkerArgs every worker's.
func (sp WorkerSpec) Check() error {
	switch {
	case sp.CheckpointEvery < 0:
		return fmt.Errorf("-checkpoint-every %d is negative", sp.CheckpointEvery)
	case sp.Retain <= 0:
		return fmt.Errorf("-checkpoint-retain %d is not positive", sp.Retain)
	}
	return nil
}

// ParseWorkerArgs parses a worker flag list back into a spec.
func ParseWorkerArgs(args []string) (WorkerSpec, error) {
	sp := DefaultSpec()
	fs := sp.workerFlags()
	if err := fs.Parse(args); err != nil {
		return sp, fmt.Errorf("supervise: worker flags: %w", err)
	}
	if len(fs.Args()) > 0 {
		return sp, fmt.Errorf("supervise: stray worker arguments %q", fs.Args())
	}
	if sp.Dir == "" {
		return sp, errors.New("supervise: worker needs -dir")
	}
	if err := sp.Check(); err != nil {
		return sp, fmt.Errorf("supervise: worker flags: %w", err)
	}
	return sp, nil
}

// RunWorker is the worker process body: resume-or-fresh startup, the
// day loop with checkpoints and day reports, heartbeats on the side,
// and the final digest report. ctrl is the supervisor's end of stdin —
// nothing is read from it but its EOF — out the report stream (stdout),
// logw a human log (stderr).
func RunWorker(sp WorkerSpec, ctrl io.Reader, out, logw io.Writer) error {
	return runWorker(sp, ctrl, out, logw, wallClock{}, killSelf)
}

// runWorker is RunWorker with its clock and the fault injector's kill
// made parameters, so in-process tests run in virtual time and can die
// without taking the test binary with them.
func runWorker(sp WorkerSpec, ctrl io.Reader, out, logw io.Writer, clk clock, die func()) error {
	mw := newMsgWriter(out)
	fatal := func(err error) error {
		mw.send(Msg{T: MsgFatal, Err: err.Error()})
		return err
	}
	policy, err := eventlog.ParseSyncPolicy(sp.Sync)
	if err != nil {
		return fatal(fmt.Errorf("supervise: %w", err))
	}
	var inj *faultinject.ProcInjector
	if sp.Faults != "" {
		pf, err := faultinject.ParseProcFaults(sp.Faults)
		if err != nil {
			return fatal(err)
		}
		inj = faultinject.New(sp.FaultSeed).Proc("worker", pf)
		mw.beforeSend = func(Msg) {
			if inj.ControlMessage() {
				die()
			}
		}
	}

	d, err := openRun(sp, logw)
	if err != nil {
		return fatal(err)
	}
	d.Log.Sync = policy

	// Heartbeats ride a side goroutine; curDay mirrors the loop's
	// progress for them. A stall silences them too — the whole process
	// is wedged, as far as the supervisor can tell.
	var curDay atomic.Int64
	curDay.Store(int64(d.Sim.Day()))
	hbStop := make(chan struct{})
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		ticks, stop := clk.ticker(sp.hbInterval)
		defer stop()
		for {
			select {
			case <-hbStop:
				return
			case <-ticks:
				if inj != nil && (inj.Stalled() || inj.DropHeartbeat()) {
					continue
				}
				mw.send(Msg{T: MsgHB, Day: int(curDay.Load())})
			}
		}
	}()
	defer func() {
		close(hbStop)
		hb.Wait()
	}()

	// gone closes when the supervisor's end of stdin does: the
	// supervisor died (or killed this incarnation), and the worker's
	// cue to stop rather than simulate for nobody. The reader ends with
	// the pipe, which the spawner closes once the worker is reaped. A
	// stalled worker waits for exactly this, as a wedged process would.
	gone := make(chan struct{})
	go func() {
		io.Copy(io.Discard, ctrl)
		close(gone)
	}()

	if err := mw.send(Msg{T: MsgHello, Day: int(d.Sim.Day()), PID: os.Getpid()}); err != nil {
		d.Log.Close() // seal what we can; the next incarnation's recovery does the rest
		return fatal(fmt.Errorf("supervise: hello: %w", err))
	}
	_, err = d.RunDays(sp.lineage(), sp.CheckpointEvery, func(day simclock.Day) error {
		curDay.Store(int64(d.Sim.Day()))
		if inj != nil && inj.DayEnd(int(day)) {
			clk.wait(gone)
		}
		if err := mw.send(Msg{T: MsgDay, Day: int(day), Events: d.Events()}); err != nil {
			return fmt.Errorf("day report: %w", err)
		}
		select {
		case <-gone:
			return errors.New("supervisor gone")
		default:
			return nil
		}
	})
	if err == nil {
		err = mw.send(Msg{T: MsgDone, Day: int(d.Sim.Day()), Events: d.Events(), Digest: Fingerprint(d.Sim.Collector())})
	}
	if err != nil {
		return fatal(fmt.Errorf("supervise: %w", err))
	}
	return nil
}

// openRun is the resume-or-fresh startup: with a restorable checkpoint,
// the §6 recovery path (sim.ResumeRun); with none — no checkpoint yet,
// or every generation corrupt and quarantined — wipe the log, which can
// only hold an unrecoverable partial run, and start over; determinism
// makes the fresh run converge on the same trajectory. A spec without a
// run shape has nothing to start over from and fails instead.
func openRun(sp WorkerSpec, logw io.Writer) (*sim.Durable, error) {
	logDir := LogDir(sp.Dir)
	d, err := sim.ResumeRun(sp.lineage(), logDir, logw)
	switch {
	case err == nil:
		fmt.Fprintf(logw, "resumed from %s at day %d\n", d.From, d.Sim.Day())
		return d, nil
	case !errors.Is(err, sim.ErrNoCheckpoint) && !errors.Is(err, sim.ErrLineageCorrupt):
		return nil, fmt.Errorf("supervise: %w", err)
	case sp.Shape.Scale == "":
		return nil, fmt.Errorf("supervise: nothing to resume in %s: %w", sp.Dir, err)
	}
	if errors.Is(err, sim.ErrLineageCorrupt) {
		fmt.Fprintf(logw, "%v; starting fresh\n", err)
	}
	cfg, err := sp.Shape.Config()
	if err != nil {
		return nil, fmt.Errorf("supervise: %w", err)
	}
	if err := os.RemoveAll(logDir); err != nil {
		return nil, err
	}
	return sim.NewDurable(cfg, logDir)
}

// killSelf delivers SIGKILL to the current process — the fault
// injector's kill-at-control-message profile, made real. It never
// returns.
func killSelf() {
	p, err := os.FindProcess(os.Getpid())
	if err == nil {
		p.Kill()
	}
	select {} // unreachable on any platform where Kill is immediate
}
