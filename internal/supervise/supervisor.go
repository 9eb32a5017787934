// Package supervise runs the simulation's durable run — event log plus
// checkpoint lineage, what `fraudsim -eventlog -checkpoint
// -checkpoint-every N` writes — as one worker process under a
// supervisor: the worker reports heartbeats and completed days over its
// stdout, and the supervisor restarts it (seeded backoff, bounded
// budget) when it dies or goes silent, each incarnation resuming through
// the §6 recovery path, then proves the finished log replays to the
// worker's live digest (DESIGN.md §9).
package supervise

// Everything the supervisor does is one event loop over a single
// channel: worker messages, worker exits, the respawn timer and
// supervision ticks all arrive as events, so the state machine needs no
// locking and its decisions have a total order — which keeps chaos-run
// postmortems readable.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/dataset"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// Proc is one spawned worker process as the supervisor sees it: a
// report pipe out and a kill switch. The real implementation is
// ExecSpawner's os/exec wrapper; tests substitute scripted fakes.
type Proc interface {
	Output() io.Reader // worker stdout
	Kill()             // SIGKILL; must be safe to call more than once
	Wait() error       // reap; call after Output has been drained
	PID() int
}

// Spawner creates worker processes from the spec the supervisor hands
// it. The spec carries a fault profile only on the FIRST spawn, so an
// injected crash does not re-arm after the restart it was meant to
// exercise.
type Spawner interface {
	Spawn(sp WorkerSpec) (Proc, error)
}

// Config parameterizes a supervised run.
type Config struct {
	// Spec describes the worker and the run.
	Spec  WorkerSpec
	Spawn Spawner

	// HBTimeout is how long the worker may stay silent before the
	// supervisor declares it dead; the worker heartbeats every
	// HBTimeout/10, which must be positive. See DefaultHBTimeout.
	HBTimeout time.Duration
	// MaxRestarts bounds restarts; exceeding it fails the run. Zero
	// means the first death is final, and a negative value is refused.
	// DefaultMaxRestarts is the CLI's default.
	MaxRestarts int
	// Seed seeds restart-backoff jitter and, with Faults, the fault
	// profile.
	Seed uint64

	// Resume finishes an interrupted run from the checkpoint lineage in
	// Spec.Dir. The run shape is the newest valid checkpoint's Config —
	// Spec's own shape fields are ignored — and a directory with nothing
	// to restore is an error. Without Resume, Run refuses a directory
	// that already holds a checkpoint.
	Resume bool

	// Faults is the process fault profile of the initial spawn.
	Faults string
	// Kills are supervisor-side SIGKILL points: the worker is killed
	// after the supervisor has observed that many day reports (counting
	// replayed days). Unlike a worker-side fault profile this lever can
	// hit the post-restart incarnation too.
	Kills []int

	// Logf, when non-nil, receives supervisor narration.
	Logf func(format string, args ...any)

	clock clock // nil: wall time
}

// The restart backoff (seeded, doubling from backoffBase up to
// backoffCap) and the progress watchdog: a run that reports no new day
// for progressTimeout fails — the wedge detector of last resort.
const (
	backoffBase     = 100 * time.Millisecond
	backoffCap      = 2 * time.Second
	progressTimeout = 2 * time.Minute
)

// DefaultMaxRestarts and DefaultHBTimeout are fraudsupervise's
// -max-restarts and -hb-timeout defaults.
const (
	DefaultMaxRestarts = 3
	DefaultHBTimeout   = 5 * time.Second
)

// Result is a completed supervised run.
type Result struct {
	// Digest is the collector fingerprint the worker computed live and
	// the replay of its log reproduced.
	Digest string
	// Events counts the records in the finished log.
	Events uint64
	// Restarts counts worker restarts.
	Restarts int
	// Elapsed is the time from first spawn through replay verification.
	Elapsed time.Duration
}

type evKind uint8

const (
	evMsg evKind = iota
	evExit
	evRespawn
	evTick
)

type event struct {
	kind evKind
	gen  int
	msg  Msg
	err  error
}

// Run executes a supervised run: spawn, supervise, finish, verify. It
// returns once the worker has completed and the replay of its log
// matches its live digest, or with the first unrecoverable error (the
// worker killed on the way out).
func Run(cfg Config) (*Result, error) {
	if cfg.Spawn == nil {
		return nil, errors.New("supervise: no spawner")
	}
	if cfg.HBTimeout/10 <= 0 {
		return nil, fmt.Errorf("supervise: HBTimeout %v is too short (the worker heartbeats every tenth of it)", cfg.HBTimeout)
	}
	if cfg.MaxRestarts < 0 {
		return nil, fmt.Errorf("supervise: MaxRestarts %d is negative", cfg.MaxRestarts)
	}
	if err := cfg.Spec.Check(); err != nil {
		return nil, fmt.Errorf("supervise: %w", err)
	}
	clk := cfg.clock
	if clk == nil {
		clk = wallClock{}
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// The run shape: the caller's on a fresh run, the checkpoint's on a
	// resumed one. Only the replay windows are needed here; the worker
	// restores (or builds) the simulation itself.
	spec := cfg.Spec
	spec.hbInterval = cfg.HBTimeout / 10
	var simCfg sim.Config
	if cfg.Resume {
		c, lrep, err := spec.lineage().Load()
		if note := lrep.String(); note != "" {
			logf("supervise: checkpoint lineage: %s", note)
		}
		if err != nil {
			return nil, fmt.Errorf("supervise: nothing to resume in %s: %w (rerun the job fresh in a new directory)", spec.Dir, err)
		}
		simCfg = c.State.Config
		spec.Shape = sim.Shape{}
		logf("supervise: resuming from %s (day %d of %d)", lrep.From, c.State.Day, simCfg.Days)
	} else {
		if held, _ := filepath.Glob(CheckpointPath(spec.Dir) + "*"); len(held) > 0 {
			return nil, fmt.Errorf("supervise: %s already holds a checkpoint (%s); resume it or use a fresh directory",
				spec.Dir, filepath.Base(held[0]))
		}
		var err error
		if simCfg, err = spec.Shape.Config(); err != nil {
			return nil, fmt.Errorf("supervise: %w", err)
		}
	}

	start := clk.now()
	// Unbuffered: the output reader hands over one message at a time, so
	// a worker on a synchronous pipe is never more than a report ahead of
	// what the loop has acted on (kill points land where they are aimed).
	// emit also selects on quit, so nobody blocks after Run returned.
	events := make(chan event)
	quit := make(chan struct{})
	emit := func(e event) {
		select {
		case events <- e:
		case <-quit:
		}
	}

	var (
		gen          int
		proc         Proc
		readers      sync.WaitGroup
		mon          = newHBMonitor(cfg.HBTimeout)
		back         = backoff.New(cfg.Seed, 0, backoffBase, backoffCap)
		completed    = -1 // highest day reported done
		lastProgress = start
		restarts     int
		dayReports   int
		kills        = cfg.Kills
		done         bool
		digest       string
		logged       uint64
	)
	// Every return path kills the live incarnation and joins every
	// output reader, so none narrates after Run has returned.
	defer func() {
		if proc != nil {
			proc.Kill()
		}
		close(quit)
		readers.Wait()
	}()
	spawn := func(faults string) error {
		gen++
		sp := spec
		sp.Faults = faults
		if faults != "" && sp.FaultSeed == 0 {
			sp.FaultSeed = cfg.Seed + 1
		}
		p, err := cfg.Spawn.Spawn(sp)
		if err != nil {
			return fmt.Errorf("supervise: spawn worker: %w", err)
		}
		proc = p
		g := gen
		readers.Add(1)
		go func() {
			defer readers.Done()
			rerr := readMsgs(p.Output(), func(m Msg) { emit(event{kind: evMsg, gen: g, msg: m}) })
			if !errors.Is(rerr, io.EOF) {
				logf("supervise: worker output: %v", rerr)
			}
			emit(event{kind: evExit, gen: g, err: p.Wait()})
		}()
		logf("supervise: worker spawned (gen %d, pid %d, faults %q)", g, p.PID(), faults)
		return nil
	}
	if err := spawn(cfg.Faults); err != nil {
		return nil, err
	}

	tickEvery := cfg.HBTimeout / 4
	if tickEvery < 10*time.Millisecond {
		tickEvery = 10 * time.Millisecond
	}
	if tickEvery > time.Second {
		tickEvery = time.Second
	}
	ticks, stopTicks := clk.ticker(tickEvery)
	defer stopTicks()
	go func() {
		for {
			select {
			case <-ticks:
				emit(event{kind: evTick})
			case <-quit:
				return
			}
		}
	}()

	for !done || proc != nil {
		e := <-events
		switch e.kind {
		case evTick:
			now := clk.now()
			if proc != nil && mon.Expired(now) {
				logf("supervise: worker silent for %s; killing", mon.Silence(now))
				mon.Disarm()
				proc.Kill()
			}
			if now.Sub(lastProgress) > progressTimeout {
				return nil, fmt.Errorf("supervise: no progress for %s (stuck at day %d)", progressTimeout, completed)
			}

		case evExit:
			if e.gen != gen {
				continue // an incarnation we already replaced
			}
			proc = nil
			mon.Disarm()
			if done {
				continue
			}
			restarts++
			if restarts > cfg.MaxRestarts {
				return nil, fmt.Errorf("supervise: worker died %d times (last exit: %v); giving up", restarts, e.err)
			}
			delay := back.Next()
			logf("supervise: worker died (exit: %v); restart %d/%d in %s", e.err, restarts, cfg.MaxRestarts, delay)
			clk.afterFunc(delay, func() { emit(event{kind: evRespawn}) })

		case evRespawn:
			// Restarts never re-arm the fault profile: the injected crash
			// already happened; the restart must be clean.
			if err := spawn(""); err != nil {
				return nil, err
			}

		case evMsg:
			if e.gen != gen {
				continue
			}
			mon.Observe(clk.now())
			switch e.msg.T {
			case MsgHello:
				logf("supervise: worker hello (pid %d, starting day %d)", e.msg.PID, e.msg.Day)
			case MsgHB:
				// Observe above is the whole job.
			case MsgDay:
				if e.msg.Day > completed {
					completed = e.msg.Day
					lastProgress = clk.now()
				}
				dayReports++
				if len(kills) > 0 && dayReports >= kills[0] {
					kills = kills[1:]
					logf("supervise: kill point: SIGKILL worker after %d day reports", dayReports)
					mon.Disarm()
					proc.Kill()
				}
			case MsgDone:
				done = true
				digest = e.msg.Digest
				logged = e.msg.Events
				mon.Disarm()
				logf("supervise: worker done (%d events)", logged)
			case MsgFatal:
				return nil, fmt.Errorf("supervise: worker fatal: %s", e.msg.Err)
			}
		}
	}

	// The log is the product; the live digest is the claim about it.
	col, err := dataset.ReplayDir(LogDir(spec.Dir), simCfg.Windows, simCfg.SampleWindow)
	if err != nil {
		return nil, fmt.Errorf("supervise: replay %s: %w", LogDir(spec.Dir), err)
	}
	if replayed := Fingerprint(col); replayed != digest {
		return nil, fmt.Errorf("supervise: replayed-log digest does not match the worker's live digest\n  live:     %s\n  replayed: %s",
			digest, replayed)
	}
	logf("supervise: complete: %d events, %d restarts", logged, restarts)
	return &Result{
		Digest:   digest,
		Events:   logged,
		Restarts: restarts,
		Elapsed:  clk.now().Sub(start),
	}, nil
}

// Fingerprint canonically encodes a collector's dataset digests as one
// comparable string. The worker sends it in its done message; the
// supervisor requires the replay of the finished log to reproduce it.
func Fingerprint(col *dataset.Collector) string {
	b, err := json.Marshal(testutil.CollectorDigests(col))
	if err != nil { // a struct of strings and ints cannot fail to marshal
		panic(err)
	}
	return string(b)
}
