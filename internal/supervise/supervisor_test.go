package supervise

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/sim"
)

// testSpec is the fast run shape the package tests share: small scale,
// a dozen days, checkpoints at days 4 and 8.
func testSpec(dir string, seed uint64) WorkerSpec {
	return WorkerSpec{
		Dir:             dir,
		Shape:           sim.Shape{Scale: "small", Seed: seed, Days: 12, Queries: 200, Regs: 8, Legit: 100},
		CheckpointEvery: 4,
		HBInterval:      50 * time.Millisecond,
		Sync:            "none",
	}
}

// referenceDigest runs the same shape with no log, no checkpoints and no
// supervisor — sim.New(cfg).Run() of the Config fraudsim's shape flags
// resolve to — and fingerprints its collector: the ground truth every
// supervised path must reproduce.
func referenceDigest(t *testing.T, sp WorkerSpec) string {
	t.Helper()
	cfg, err := sp.Shape.Config()
	if err != nil {
		t.Fatal(err)
	}
	return Fingerprint(sim.New(cfg).Run().Collector)
}

// pipeProc runs the worker on a goroutine behind io.Pipe pairs — the
// real protocol and the real recovery path, no subprocesses. Kill
// severs both pipes, which is how a pipe-connected process death looks
// from either side; the worker then errors out of its next protocol
// step, and Wait returns only once it has, so incarnations never
// overlap on the run directory.
type pipeProc struct {
	ctrlR *io.PipeReader
	ctrlW *io.PipeWriter
	outR  *io.PipeReader
	pid   int

	killOnce sync.Once
	done     chan error
}

var errKilled = errors.New("signal: killed")

func (p *pipeProc) Output() io.Reader { return p.outR }
func (p *pipeProc) PID() int          { return p.pid }
func (p *pipeProc) Wait() error       { return <-p.done }
func (p *pipeProc) Kill() {
	p.killOnce.Do(func() {
		p.ctrlR.CloseWithError(errKilled)
		p.outR.CloseWithError(errKilled)
	})
}

// pipeSpawner is the in-process Spawner. Fault profiles flow through to
// the worker exactly as they would over a real command line; a kill@msg
// profile severs the pipes and ends the calling goroutine where a real
// worker would SIGKILL itself.
type pipeSpawner struct {
	// beforeSpawn, when set, runs ahead of the n-th spawn (1 = the
	// initial one) — the window between a death and its restart, where
	// tests damage what the dead incarnation left behind.
	beforeSpawn func(n int)

	mu     sync.Mutex
	faults []string // fault profile of each spawn, in order
}

func (ps *pipeSpawner) Spawn(sp WorkerSpec) (Proc, error) {
	ps.mu.Lock()
	ps.faults = append(ps.faults, sp.Faults)
	n := len(ps.faults)
	ps.mu.Unlock()
	if ps.beforeSpawn != nil {
		ps.beforeSpawn(n)
	}

	ctrlR, ctrlW := io.Pipe()
	outR, outW := io.Pipe()
	p := &pipeProc{ctrlR: ctrlR, ctrlW: ctrlW, outR: outR, pid: n, done: make(chan error, 1)}
	go func() {
		err := errKilled // what Wait reports if the worker kills itself
		defer func() {
			outW.Close()
			ctrlW.Close()
			p.done <- err
		}()
		err = runWorker(sp, ctrlR, outW, io.Discard, func() {
			p.Kill()
			runtime.Goexit()
		})
	}()
	return p, nil
}

func (ps *pipeSpawner) spawnFaults() []string {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return append([]string(nil), ps.faults...)
}

// superviseConfig is the fast supervision shape shared by these tests.
func superviseConfig(dir string, seed uint64, ps Spawner, t *testing.T) Config {
	return Config{
		Spec:  testSpec(dir, seed),
		Spawn: ps,
		// A mute worker is silent for a whole day, and a loaded 2-vCPU
		// host under -race has taken over 400 ms for one. The matrix's
		// stalled scenario scales its stall with this timeout.
		HBTimeout:       time.Second,
		MaxRestarts:     3,
		BackoffBase:     10 * time.Millisecond,
		BackoffCap:      50 * time.Millisecond,
		Seed:            seed,
		ProgressTimeout: 30 * time.Second,
		Logf:            t.Logf,
	}
}

// TestSupervisedRunMatrix is the equivalence matrix: for each seed, a
// supervised run — undisturbed or put through one of the failure modes
// the supervisor exists for — must finish on the digest of
// sim.New(cfg).Run(), its log must replay to that digest, and the number
// of restarts must be exactly what the scenario provokes.
func TestSupervisedRunMatrix(t *testing.T) {
	scenarios := []struct {
		name     string
		arm      func(cfg *Config, ps *pipeSpawner)
		restarts int
	}{
		{"clean", func(*Config, *pipeSpawner) {}, 0},
		// Report 3 precedes the first checkpoint (a fresh restart);
		// report 9 is day 5 of the second incarnation, past the day-4
		// checkpoint (a resumed restart).
		{"supervisor-kill", func(cfg *Config, _ *pipeSpawner) { cfg.Kills = []int{3, 9} }, 2},
		{"kill@msg", func(cfg *Config, _ *pipeSpawner) { cfg.Faults = "kill@msg=3..11" }, 1},
		// Wedged past the heartbeat timeout: declared dead, killed,
		// restarted without the profile.
		{"stalled", func(cfg *Config, _ *pipeSpawner) {
			cfg.Faults = fmt.Sprintf("stall@day=5:%s", 5*cfg.HBTimeout/2)
		}, 1},
		// Mute but making progress: day reports are proof of life, so a
		// worker whose heartbeats stop is not restarted.
		{"mute-after-2", func(cfg *Config, _ *pipeSpawner) { cfg.Faults = "mute-hb@2" }, 0},
		// Killed after the day-8 checkpoint, which rots before the
		// restart: the lineage quarantines it and falls back to day 4.
		{"corrupt-newest-checkpoint", func(cfg *Config, ps *pipeSpawner) {
			cfg.Kills = []int{10}
			dir := cfg.Spec.Dir
			ps.beforeSpawn = func(n int) {
				if n != 2 {
					return
				}
				profile, err := faultinject.ParseCkptFaults("bitflip")
				if err == nil {
					err = faultinject.New(cfg.Seed).Ckpt("newest", profile).Corrupt(CheckpointPath(dir))
				}
				if err != nil {
					panic(err)
				}
			}
		}, 1},
	}
	for _, seed := range []uint64{5, 6, 9} {
		want := referenceDigest(t, testSpec("", seed))
		for _, sc := range scenarios {
			seed, sc := seed, sc
			t.Run(fmt.Sprintf("seed%d/%s", seed, sc.name), func(t *testing.T) {
				dir := t.TempDir()
				ps := &pipeSpawner{}
				cfg := superviseConfig(dir, seed, ps, t)
				sc.arm(&cfg, ps)
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Digest != want {
					t.Errorf("supervised digest diverges from sim.New(cfg).Run()")
				}
				simCfg, _ := cfg.Spec.Shape.Config()
				col, err := dataset.ReplayDir(LogDir(dir), simCfg.Windows, simCfg.SampleWindow)
				if err != nil {
					t.Fatal(err)
				}
				if Fingerprint(col) != want {
					t.Errorf("replayed log diverges from sim.New(cfg).Run()")
				}
				if res.Restarts != sc.restarts {
					t.Errorf("restarts = %d, want %d", res.Restarts, sc.restarts)
				}
				// Restarts must come up without the original fault profile.
				for i, f := range ps.spawnFaults() {
					if i == 0 && f != cfg.Faults || i > 0 && f != "" {
						t.Errorf("spawn %d carried fault profile %q", i+1, f)
					}
				}
				if sc.name == "corrupt-newest-checkpoint" {
					if _, err := os.Stat(CheckpointPath(dir) + sim.CorruptSuffix); err != nil {
						t.Errorf("damaged checkpoint was not quarantined: %v", err)
					}
				}
			})
		}
	}
}

// deadProc is a scripted Proc that emits a canned output stream and
// exits — for supervisor paths no healthy worker can produce.
type deadProc struct {
	out  io.Reader
	done chan error
}

func newDeadProc(output string, exitErr error) *deadProc {
	d := &deadProc{out: strings.NewReader(output), done: make(chan error, 1)}
	d.done <- exitErr
	return d
}

func (d *deadProc) Output() io.Reader { return d.out }
func (d *deadProc) Kill()             {}
func (d *deadProc) Wait() error       { return <-d.done }
func (d *deadProc) PID() int          { return -1 }

type scriptSpawner struct {
	mu     sync.Mutex
	spawns int
	next   func(spawn int) Proc
}

func (s *scriptSpawner) Spawn(WorkerSpec) (Proc, error) {
	s.mu.Lock()
	s.spawns++
	n := s.spawns
	s.mu.Unlock()
	return s.next(n), nil
}

// TestMaxRestartsExceeded: a worker that dies instantly on every
// incarnation exhausts its restart budget and fails the run with a
// diagnosable error.
func TestMaxRestartsExceeded(t *testing.T) {
	ss := &scriptSpawner{next: func(int) Proc {
		return newDeadProc("", errors.New("exit status 137"))
	}}
	cfg := Config{
		Spec:        testSpec(t.TempDir(), 3),
		Spawn:       ss,
		MaxRestarts: 2,
		BackoffBase: time.Millisecond,
		BackoffCap:  5 * time.Millisecond,
		Logf:        t.Logf,
	}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "worker died 3 times (last exit: exit status 137); giving up") {
		t.Fatalf("want a died-too-often error, got %v", err)
	}
	if ss.spawns != cfg.MaxRestarts+1 {
		t.Errorf("spawned %d times, want %d (initial + MaxRestarts)", ss.spawns, cfg.MaxRestarts+1)
	}
}

// TestWorkerFatalFailsFast: a deterministic worker error (fatal
// message) fails the run without burning the restart budget.
func TestWorkerFatalFailsFast(t *testing.T) {
	ss := &scriptSpawner{next: func(int) Proc {
		return newDeadProc(`{"t":"fatal","err":"unknown scale \"galactic\""}`+"\n", nil)
	}}
	cfg := Config{
		Spec:        testSpec(t.TempDir(), 3),
		Spawn:       ss,
		MaxRestarts: 5,
		Logf:        t.Logf,
	}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), `worker fatal: unknown scale "galactic"`) {
		t.Fatalf("want a fatal error, got %v", err)
	}
	if ss.spawns != 1 {
		t.Errorf("fatal worker was respawned %d times; deterministic errors must not retry", ss.spawns-1)
	}
}

// chattyProc heartbeats forever and never reports a day: alive by the
// heartbeat monitor's lights, wedged by the progress watchdog's.
type chattyProc struct {
	outR *io.PipeReader
	stop chan struct{}
	once sync.Once
	done chan error
}

func newChattyProc() *chattyProc {
	outR, outW := io.Pipe()
	p := &chattyProc{outR: outR, stop: make(chan struct{}), done: make(chan error, 1)}
	go func() {
		mw := newMsgWriter(outW)
		mw.send(Msg{T: MsgHello})
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				outW.Close()
				p.done <- errKilled
				return
			case <-t.C:
				mw.send(Msg{T: MsgHB})
			}
		}
	}()
	return p
}

func (p *chattyProc) Output() io.Reader { return p.outR }
func (p *chattyProc) PID() int          { return -1 }
func (p *chattyProc) Wait() error       { return <-p.done }
func (p *chattyProc) Kill() {
	p.once.Do(func() {
		p.outR.CloseWithError(errKilled)
		close(p.stop)
	})
}

// TestProgressTimeout: heartbeats without days are not progress; after
// ProgressTimeout the run fails and the wedged worker is killed.
func TestProgressTimeout(t *testing.T) {
	var proc *chattyProc
	ss := &scriptSpawner{next: func(int) Proc {
		proc = newChattyProc()
		return proc
	}}
	cfg := Config{
		Spec:            testSpec(t.TempDir(), 3),
		Spawn:           ss,
		HBTimeout:       200 * time.Millisecond,
		ProgressTimeout: 300 * time.Millisecond,
		Logf:            t.Logf,
	}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "no progress for 300ms (stuck at day -1)") {
		t.Fatalf("want a no-progress error, got %v", err)
	}
	select {
	case <-proc.stop:
	case <-time.After(5 * time.Second):
		t.Error("wedged worker was not killed on the way out")
	}
	if ss.spawns != 1 {
		t.Errorf("wedged worker was respawned %d times", ss.spawns-1)
	}
}
