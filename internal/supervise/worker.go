package supervise

// The worker: the durable run `fraudsim -eventlog DIR/log -checkpoint
// DIR/run.frsnap -checkpoint-every N` performs, narrated over the
// protocol. It writes one event log and one checkpoint lineage under
// its working directory, through the same calls in the same order as
// fraudsim, so the log it leaves is the log fraudsim would have left,
// byte for byte.
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

	// Run shape. A spec with an empty Scale carries none: the shape is
	// the Config of the checkpoint in Dir, and a worker that finds
	// nothing to restore fails instead of starting over (how a resumed
	// run's workers are spawned).
	Scale   string
	Seed    uint64
	Days    int     // 0 = scale default
	Queries int     // 0 = scale default
	Regs    float64 // 0 = scale default
	Legit   int     // 0 = scale default

	CheckpointEvery int
	// Retain is the checkpoint-lineage depth (last K checkpoints kept;
	// <= 0 means sim.DefaultRetain). It does not affect the trajectory,
	// only how much corruption a restart survives.
	Retain     int
	HBInterval time.Duration
	Sync       string // event log fsync policy: none, rotate, interval

	// Faults is a faultinject.ParseProcFaults spec ("" = none) seeded by
	// FaultSeed — chaos harness hooks, never set in normal operation.
	Faults    string
	FaultSeed uint64
}

// LogDir returns the event-log directory of the run in dir.
func LogDir(dir string) string { return filepath.Join(dir, "log") }

// CheckpointPath returns the anchor of the run's checkpoint lineage.
func CheckpointPath(dir string) string { return filepath.Join(dir, "run.frsnap") }

func (sp WorkerSpec) lineage() sim.Lineage {
	return sim.Lineage{Path: CheckpointPath(sp.Dir), Retain: sp.Retain}
}

// SimConfig resolves the spec's run shape into the simulation
// configuration: the scale preset plus the overrides, exactly as
// fraudsim's flags of the same names resolve.
func (sp WorkerSpec) SimConfig() (sim.Config, error) {
	cfg, err := sim.ScaleConfig(sp.Scale)
	if err != nil {
		return cfg, fmt.Errorf("supervise: %w", err)
	}
	cfg.Seed = sp.Seed
	if sp.Days > 0 {
		cfg.Days = simclock.Day(sp.Days)
	}
	if sp.Queries > 0 {
		cfg.QueriesPerDay = sp.Queries
	}
	if sp.Regs > 0 {
		cfg.RegistrationsPerDay = sp.Regs
	}
	if sp.Legit > 0 {
		cfg.InitialLegit = sp.Legit
	}
	return cfg, nil
}

// Args renders the spec as the canonical worker flag list (the inverse
// of ParseWorkerArgs).
func (sp WorkerSpec) Args() []string {
	args := []string{
		"-dir", sp.Dir,
		"-scale", sp.Scale,
		"-seed", fmt.Sprint(sp.Seed),
		"-days", fmt.Sprint(sp.Days),
		"-queries", fmt.Sprint(sp.Queries),
		"-regs", fmt.Sprint(sp.Regs),
		"-legit", fmt.Sprint(sp.Legit),
		"-checkpoint-every", fmt.Sprint(sp.CheckpointEvery),
		"-checkpoint-retain", fmt.Sprint(sp.Retain),
		"-hb-interval", sp.HBInterval.String(),
		"-sync", sp.Sync,
	}
	if sp.Faults != "" {
		args = append(args, "-faults", sp.Faults, "-fault-seed", fmt.Sprint(sp.FaultSeed))
	}
	return args
}

// ParseWorkerArgs parses a worker flag list back into a spec.
func ParseWorkerArgs(args []string) (WorkerSpec, error) {
	sp := WorkerSpec{}
	fs := flag.NewFlagSet("supervised-worker", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&sp.Dir, "dir", "", "run working directory")
	fs.StringVar(&sp.Scale, "scale", "medium", "simulation scale (empty = take the run shape from the checkpoint)")
	fs.Uint64Var(&sp.Seed, "seed", 42, "simulation seed")
	fs.IntVar(&sp.Days, "days", 0, "override simulated days")
	fs.IntVar(&sp.Queries, "queries", 0, "override queries per day")
	fs.Float64Var(&sp.Regs, "regs", 0, "override registrations per day")
	fs.IntVar(&sp.Legit, "legit", 0, "override initial legitimate advertisers")
	fs.IntVar(&sp.CheckpointEvery, "checkpoint-every", 8, "checkpoint every N simulated days")
	fs.IntVar(&sp.Retain, "checkpoint-retain", sim.DefaultRetain, "checkpoint lineage depth (last K kept)")
	fs.DurationVar(&sp.HBInterval, "hb-interval", 500*time.Millisecond, "heartbeat interval")
	fs.StringVar(&sp.Sync, "sync", "rotate", "event log fsync policy")
	fs.StringVar(&sp.Faults, "faults", "", "process fault profile (chaos testing)")
	fs.Uint64Var(&sp.FaultSeed, "fault-seed", 0, "fault profile seed")
	if err := fs.Parse(args); err != nil {
		return sp, fmt.Errorf("supervise: worker flags: %w", err)
	}
	if len(fs.Args()) > 0 {
		return sp, fmt.Errorf("supervise: stray worker arguments %q", fs.Args())
	}
	if sp.Dir == "" {
		return sp, errors.New("supervise: worker needs -dir")
	}
	return sp, nil
}

// RunWorker is the worker process body: resume-or-fresh startup, the
// day loop with checkpoints and day reports, heartbeats on the side,
// and the final digest report. ctrl is the supervisor's end of stdin —
// nothing is read from it but its EOF — out the report stream (stdout),
// logw a human log (stderr).
func RunWorker(sp WorkerSpec, ctrl io.Reader, out, logw io.Writer) error {
	return runWorker(sp, ctrl, out, logw, killSelf)
}

// runWorker is RunWorker with the fault injector's kill made a
// parameter, so in-process tests can die without taking the test binary
// with them.
func runWorker(sp WorkerSpec, ctrl io.Reader, out, logw io.Writer, die func()) error {
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

	s, dw, logBase, err := openRun(sp, logw)
	if err != nil {
		return fatal(err)
	}
	dw.Sync = policy

	// Heartbeats ride a side goroutine; curDay mirrors the loop's
	// progress for them. A stalled fault silences them too — the whole
	// process is wedged, as far as the supervisor can tell.
	var curDay atomic.Int64
	curDay.Store(int64(s.Day()))
	hbStop := make(chan struct{})
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		t := time.NewTicker(sp.HBInterval)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
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
	// the pipe, which the spawner closes once the worker is reaped.
	gone := make(chan struct{})
	go func() {
		io.Copy(io.Discard, ctrl)
		close(gone)
	}()

	if err := runDays(sp, s, dw, logBase, mw, inj, gone, &curDay); err != nil {
		dw.Close() // seal what we can; the next incarnation's recovery does the rest
		return fatal(err)
	}
	if inj != nil {
		time.Sleep(inj.ExitDelay())
	}
	return nil
}

// openRun is the resume-or-fresh startup: with a restorable checkpoint,
// the §6 recovery path (sim.ResumeRun); with none — no checkpoint yet,
// or every generation corrupt and quarantined — wipe the log, which can
// only hold an unrecoverable partial run, and start over; determinism
// makes the fresh run converge on the same trajectory. A spec without a
// run shape has nothing to start over from and fails instead.
func openRun(sp WorkerSpec, logw io.Writer) (*sim.Sim, *eventlog.DirWriter, uint64, error) {
	var cfg sim.Config
	if sp.Scale != "" {
		var err error
		if cfg, err = sp.SimConfig(); err != nil {
			return nil, nil, 0, err
		}
	}
	logDir := LogDir(sp.Dir)
	r, err := sim.ResumeRun(sp.lineage(), logDir, logw)
	switch {
	case err == nil:
		fmt.Fprintf(logw, "resumed from %s at day %d\n", r.From, r.Sim.Day())
		return r.Sim, r.Log, r.LogBase, nil
	case !errors.Is(err, sim.ErrNoCheckpoint) && !errors.Is(err, sim.ErrLineageCorrupt):
		return nil, nil, 0, fmt.Errorf("supervise: %w", err)
	case sp.Scale == "":
		return nil, nil, 0, fmt.Errorf("supervise: nothing to resume in %s: %w", sp.Dir, err)
	}
	if errors.Is(err, sim.ErrLineageCorrupt) {
		fmt.Fprintf(logw, "%v; starting fresh\n", err)
	}
	if err := os.RemoveAll(logDir); err != nil {
		return nil, nil, 0, err
	}
	dw, err := eventlog.NewDirWriter(logDir)
	if err != nil {
		return nil, nil, 0, err
	}
	cfg.Events = dw
	return sim.New(cfg), dw, 0, nil
}

// runDays drives the day loop to the horizon and reports the digest.
func runDays(sp WorkerSpec, s *sim.Sim, dw *eventlog.DirWriter, logBase uint64,
	mw *msgWriter, inj *faultinject.ProcInjector, gone <-chan struct{}, curDay *atomic.Int64) error {

	startDay := int(s.Day())
	if err := mw.send(Msg{T: MsgHello, Day: startDay, PID: os.Getpid()}); err != nil {
		return fmt.Errorf("supervise: hello: %w", err)
	}
	for more := true; more; {
		select {
		case <-gone:
			return errors.New("supervise: supervisor gone")
		default:
		}
		d := int(s.Day())
		if sp.CheckpointEvery > 0 && d > startDay && d%sp.CheckpointEvery == 0 {
			if err := dw.Rotate(); err != nil {
				return fmt.Errorf("supervise: rotate: %w", err)
			}
			pos := sim.LogPosition{NextSegment: dw.NextSegment(), Events: logBase + dw.Events()}
			if err := s.SaveCheckpointLineage(sp.lineage(), pos); err != nil {
				return fmt.Errorf("supervise: checkpoint: %w", err)
			}
		}
		more = s.Step()
		curDay.Store(int64(s.Day()))
		if inj != nil {
			inj.DayEnd(d)
		}
		if err := mw.send(Msg{T: MsgDay, Day: d, Events: logBase + dw.Events()}); err != nil {
			return fmt.Errorf("supervise: day report: %w", err)
		}
	}

	s.Finish()
	if err := dw.Close(); err != nil {
		return fmt.Errorf("supervise: close log: %w", err)
	}
	if err := mw.send(Msg{
		T: MsgDone, Day: int(s.Day()),
		Events: logBase + dw.Events(), Digest: Fingerprint(s.Collector()),
	}); err != nil {
		return fmt.Errorf("supervise: done report: %w", err)
	}
	return nil
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
