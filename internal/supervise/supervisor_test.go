package supervise

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
		Retain:          sim.DefaultRetain,
		Sync:            "none",
	}
}

// referenceDigest runs the same shape with no log, no checkpoints and no
// supervisor — sim.New(cfg).Run() of the Config fraudsim's shape flags
// resolve to — and fingerprints its collector: the ground truth every
// supervised path must reproduce. Each shape runs once per test binary.
func referenceDigest(t *testing.T, sp WorkerSpec) string {
	t.Helper()
	if d, ok := references.Load(sp.Shape); ok {
		return d.(string)
	}
	cfg, err := sp.Shape.Config()
	if err != nil {
		t.Fatal(err)
	}
	d := Fingerprint(sim.New(cfg).Run().Collector)
	references.Store(sp.Shape, d)
	return d
}

var references sync.Map // sim.Shape -> referenceDigest

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
	out   io.Reader // outR, stepping the clock by dayStep per day report
	pid   int

	killOnce sync.Once
	done     chan error
}

var errKilled = errors.New("signal: killed")

func (p *pipeProc) Output() io.Reader { return p.out }
func (p *pipeProc) PID() int          { return p.pid }
func (p *pipeProc) Wait() error       { return <-p.done }
func (p *pipeProc) Kill() {
	p.killOnce.Do(func() {
		p.ctrlR.CloseWithError(errKilled)
		p.outR.CloseWithError(errKilled)
	})
}

// dayStep is how much virtual time one simulated day takes. Heartbeats
// go every 500ms at the default 5s timeout, so a worker that only
// reports days is five of them from being declared silent.
const dayStep = time.Second

// dayClock advances clk by dayStep for each day report read through it.
// A pipe read returns at most one write, and the worker writes each
// report in one.
type dayClock struct {
	r   io.Reader
	clk *fakeClock
}

func (d dayClock) Read(b []byte) (int, error) {
	n, err := d.r.Read(b)
	for range bytes.Count(b[:n], []byte(`"t":"day"`)) {
		d.clk.advance(dayStep)
	}
	return n, err
}

// pipeSpawner is the in-process Spawner, its workers on the
// supervisor's fake clock. Fault profiles flow through to the worker
// exactly as they would over a real command line; a kill@msg profile
// severs the pipes and ends the calling goroutine where a real worker
// would SIGKILL itself.
type pipeSpawner struct {
	clk *fakeClock
	// beforeSpawn, when set, runs ahead of the n-th spawn (1 = the
	// initial one) — the window between a death and its restart, where
	// tests damage what the dead incarnation left behind.
	beforeSpawn func(n int)

	mu       sync.Mutex
	faults   []string // fault profile of each spawn, in order
	newest   []int    // day of the newest verifying checkpoint at each spawn
	live     int      // workers spawned and not yet exited
	overlaps int      // spawns while a worker was live
}

func (ps *pipeSpawner) Spawn(sp WorkerSpec) (Proc, error) {
	ps.mu.Lock()
	n := len(ps.faults) + 1
	ps.mu.Unlock()
	if ps.beforeSpawn != nil {
		ps.beforeSpawn(n)
	}
	newest := newestCheckpointDay(sp.Dir)
	ps.mu.Lock()
	ps.faults = append(ps.faults, sp.Faults)
	ps.newest = append(ps.newest, newest)
	if ps.live > 0 {
		ps.overlaps++
	}
	ps.live++
	ps.mu.Unlock()

	ctrlR, ctrlW := io.Pipe()
	outR, outW := io.Pipe()
	p := &pipeProc{ctrlR: ctrlR, ctrlW: ctrlW, outR: outR, out: dayClock{outR, ps.clk}, pid: n, done: make(chan error, 1)}
	go func() {
		err := errKilled // what Wait reports if the worker kills itself
		defer func() {
			outW.Close()
			ctrlW.Close()
			ps.mu.Lock()
			ps.live--
			ps.mu.Unlock()
			p.done <- err
		}()
		err = runWorker(sp, ctrlR, outW, io.Discard, ps.clk, func() {
			p.Kill()
			runtime.Goexit()
		})
	}()
	return p, nil
}

// newestCheckpointDay is the day of the newest checkpoint generation in
// dir that verifies (0 when none does): the day a worker spawned now
// must start from.
func newestCheckpointDay(dir string) int {
	for i := range 2 * sim.DefaultRetain {
		path := CheckpointPath(dir)
		if i > 0 {
			path = fmt.Sprintf("%s.%d", path, i)
		}
		if c, err := sim.ReadCheckpoint(path); err == nil {
			return int(c.State.Day)
		}
	}
	return 0
}

// superviseConfig is the supervision shape shared by these tests: the
// defaults, in-process workers, virtual time.
func superviseConfig(dir string, seed uint64, t *testing.T) Config {
	clk := newFakeClock()
	return Config{
		Spec:        testSpec(dir, seed),
		Spawn:       &pipeSpawner{clk: clk},
		HBTimeout:   DefaultHBTimeout,
		MaxRestarts: 3,
		Seed:        seed,
		Logf:        t.Logf,
		clock:       clk,
	}
}

// pipes is a fresh in-process spawner on cfg's clock.
func pipes(cfg Config) *pipeSpawner { return &pipeSpawner{clk: cfg.clock.(*fakeClock)} }

// decisions is a supervised run's decision trace, read from the
// supervisor's narration: each spawn with its fault profile, the day
// each incarnation starts from, each kill with its reason, and each
// respawn delay.
type decisions struct {
	t      *testing.T
	mu     sync.Mutex
	steps  []string
	gen    int         // the newest spawn; the supervisor hears only its hello
	starts map[int]int // spawn number -> start day
}

func (d *decisions) logf(format string, args ...any) {
	d.t.Logf(format, args...)
	d.mu.Lock()
	defer d.mu.Unlock()
	var step string
	switch {
	case strings.HasPrefix(format, "supervise: worker spawned"):
		d.gen = args[0].(int)
		step = fmt.Sprintf("spawn %d faults=%q", d.gen, args[2])
	case strings.HasPrefix(format, "supervise: worker hello"):
		d.starts[d.gen] = args[1].(int)
		step = fmt.Sprintf("start %d at day %d", d.gen, args[1])
	case strings.HasPrefix(format, "supervise: worker silent"):
		step = "kill: silent"
	case strings.HasPrefix(format, "supervise: kill point"):
		step = fmt.Sprintf("kill: after %d day reports", args[0])
	case strings.HasPrefix(format, "supervise: worker died"):
		step = fmt.Sprintf("respawn in %s", args[3])
	default:
		return
	}
	d.steps = append(d.steps, step)
}

// TestSupervisedRunMatrix is the equivalence matrix: for each seed, a
// supervised run — undisturbed or put through one of the failure modes
// the supervisor exists for — must finish on the digest of
// sim.New(cfg).Run(), its log must replay to that digest, the number of
// restarts must be exactly what the scenario provokes, and its
// decisions must keep checkDecisions' invariants. The runs are in
// virtual time, so a stall costs no wall time.
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
		// Wedged at the end of day 5 until the supervisor acts: declared
		// silent past the heartbeat timeout, killed, restarted without
		// the profile.
		{"stalled", func(cfg *Config, _ *pipeSpawner) { cfg.Faults = "stall@day=5" }, 1},
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
			t.Run(fmt.Sprintf("seed%d/%s", seed, sc.name), func(t *testing.T) {
				// The stalled scenario runs twice side by side, so it
				// runs before the others, which share the CPUs.
				if sc.name != "stalled" {
					t.Parallel()
				}
				// run may run beside itself, so it reports with Errorf.
				run := func() []string {
					dir := t.TempDir()
					cfg := superviseConfig(dir, seed, t)
					ps := cfg.Spawn.(*pipeSpawner)
					sc.arm(&cfg, ps)
					trace := &decisions{t: t, starts: map[int]int{}}
					cfg.Logf = trace.logf
					res, err := Run(cfg)
					if err != nil {
						t.Error(err)
						return nil
					}
					if res.Digest != want {
						t.Errorf("supervised digest diverges from sim.New(cfg).Run()")
					}
					simCfg, _ := cfg.Spec.Shape.Config()
					col, err := dataset.ReplayDir(LogDir(dir), simCfg.Windows, simCfg.SampleWindow)
					if err != nil {
						t.Error(err)
					} else if Fingerprint(col) != want {
						t.Errorf("replayed log diverges from sim.New(cfg).Run()")
					}
					if res.Restarts != sc.restarts {
						t.Errorf("restarts = %d, want %d", res.Restarts, sc.restarts)
					}
					checkDecisions(t, cfg, ps, trace, res)
					if sc.name == "corrupt-newest-checkpoint" {
						if _, err := os.Stat(CheckpointPath(dir) + sim.CorruptSuffix); err != nil {
							t.Errorf("damaged checkpoint was not quarantined: %v", err)
						}
					}
					return trace.steps
				}
				if sc.name != "stalled" {
					t.Logf("decisions: %q", run())
					return
				}
				// In virtual time a stall's decisions are a function of
				// (seed, fault profile): a second run, beside the first,
				// makes the same ones.
				var again []string
				ran := make(chan struct{})
				go func() {
					defer close(ran)
					again = run()
				}()
				steps := run()
				<-ran
				t.Logf("decisions: %q", steps)
				if !slices.Equal(again, steps) {
					t.Errorf("two stalled runs decided differently:\n  %q\n  %q", steps, again)
				}
			})
		}
	}
}

// checkDecisions holds a finished run's decision trace to the
// invariants every scenario shares: the restart budget is kept, no
// worker is spawned while another is alive, only the first spawn
// carries the fault profile, and every incarnation starts from the
// newest checkpoint that verifies.
func checkDecisions(t *testing.T, cfg Config, ps *pipeSpawner, d *decisions, res *Result) {
	t.Helper()
	respawns := 0
	for _, s := range d.steps {
		if strings.HasPrefix(s, "respawn in") {
			respawns++
		}
	}
	if respawns != res.Restarts || respawns > cfg.MaxRestarts {
		t.Errorf("%d respawns for %d restarts (budget %d)", respawns, res.Restarts, cfg.MaxRestarts)
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.overlaps != 0 {
		t.Errorf("%d spawns while a worker was alive", ps.overlaps)
	}
	for i, f := range ps.faults {
		if i == 0 && f != cfg.Faults || i > 0 && f != "" {
			t.Errorf("spawn %d carried fault profile %q", i+1, f)
		}
	}
	for n, day := range d.starts {
		if want := ps.newest[n-1]; day != want {
			t.Errorf("spawn %d started at day %d, not at the newest verifying checkpoint's day %d", n, day, want)
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
		HBTimeout:   DefaultHBTimeout,
		MaxRestarts: 2,
		Logf:        t.Logf,
		clock:       newFakeClock(),
	}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "worker died 3 times (last exit: exit status 137); giving up") {
		t.Fatalf("want a died-too-often error, got %v", err)
	}
	if ss.spawns != cfg.MaxRestarts+1 {
		t.Errorf("spawned %d times, want %d (initial + MaxRestarts)", ss.spawns, cfg.MaxRestarts+1)
	}
}

// TestZeroRestartBudget: MaxRestarts 0 is no restarts at all, and a
// negative budget is refused before anything is spawned.
func TestZeroRestartBudget(t *testing.T) {
	for _, budget := range []int{0, -1} {
		ss := &scriptSpawner{next: func(int) Proc {
			return newDeadProc("", errors.New("exit status 137"))
		}}
		_, err := Run(Config{Spec: testSpec(t.TempDir(), 3), Spawn: ss, HBTimeout: DefaultHBTimeout, MaxRestarts: budget, clock: newFakeClock()})
		want, spawns := "worker died 1 times", 1
		if budget < 0 {
			want, spawns = "MaxRestarts -1 is negative", 0
		}
		if err == nil || !strings.Contains(err.Error(), want) || ss.spawns != spawns {
			t.Errorf("MaxRestarts %d: %v after %d spawns, want %q after %d", budget, err, ss.spawns, want, spawns)
		}
	}
}

// TestRunRefusesBadSizes: Run takes the heartbeat timeout and checkpoint
// sizes it is given. A timeout whose tenth is not a positive interval
// (zero included), a lineage depth below one and a negative checkpoint
// interval are refused before anything is spawned, not replaced by a
// default or left for every worker to refuse.
func TestRunRefusesBadSizes(t *testing.T) {
	type bad struct {
		name string
		edit func(*Config)
		want string
	}
	cases := []bad{
		{"Retain 0", func(c *Config) { c.Spec.Retain = 0 }, "-checkpoint-retain 0 is not positive"},
		{"CheckpointEvery -1", func(c *Config) { c.Spec.CheckpointEvery = -1 }, "-checkpoint-every -1 is negative"},
	}
	for _, hb := range []time.Duration{0, 9, -time.Second} {
		cases = append(cases, bad{fmt.Sprintf("HBTimeout %v", hb), func(c *Config) { c.HBTimeout = hb }, "is too short"})
	}
	for _, tc := range cases {
		ss := &scriptSpawner{next: func(int) Proc { return newDeadProc("", errors.New("exit status 137")) }}
		cfg := Config{Spec: testSpec(t.TempDir(), 3), Spawn: ss, HBTimeout: DefaultHBTimeout, clock: newFakeClock()}
		tc.edit(&cfg)
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) || ss.spawns != 0 {
			t.Errorf("%s: %v after %d spawns, want %q before any", tc.name, err, ss.spawns, tc.want)
		}
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
		HBTimeout:   DefaultHBTimeout,
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
// heartbeat monitor's lights, wedged by the progress watchdog's. Virtual
// time passes while it is wedged, until it is killed.
type chattyProc struct {
	outR *io.PipeReader
	stop chan struct{}
	once sync.Once
	done chan error
}

func newChattyProc(clk *fakeClock) *chattyProc {
	outR, outW := io.Pipe()
	p := &chattyProc{outR: outR, stop: make(chan struct{}), done: make(chan error, 1)}
	ticks, stopTicks := clk.ticker(500 * time.Millisecond)
	go clk.wait(p.stop)
	go func() {
		defer stopTicks()
		mw := newMsgWriter(outW)
		mw.send(Msg{T: MsgHello})
		for {
			select {
			case <-p.stop:
				outW.Close()
				p.done <- errKilled
				return
			case <-ticks:
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
// two minutes the run fails and the wedged worker is killed.
func TestProgressTimeout(t *testing.T) {
	clk := newFakeClock()
	var proc *chattyProc
	ss := &scriptSpawner{next: func(int) Proc {
		proc = newChattyProc(clk)
		return proc
	}}
	cfg := Config{
		Spec:      testSpec(t.TempDir(), 3),
		Spawn:     ss,
		HBTimeout: DefaultHBTimeout,
		Logf:      t.Logf,
		clock:     clk,
	}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "no progress for 2m0s (stuck at day -1)") {
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

// lateErrProc reports a fatal error, and once killed, after a few
// milliseconds, fails its next output read: the pipe a kill tears down.
type lateErrProc struct {
	killed chan struct{}
	once   sync.Once
	sent   bool
}

func (p *lateErrProc) Read(b []byte) (int, error) {
	if !p.sent {
		p.sent = true
		return copy(b, `{"t":"fatal","err":"wedged"}`+"\n"), nil
	}
	<-p.killed
	time.Sleep(5 * time.Millisecond)
	return 0, errors.New("read |0: file already closed")
}

func (p *lateErrProc) Output() io.Reader { return p }
func (p *lateErrProc) Kill()             { p.once.Do(func() { close(p.killed) }) }
func (p *lateErrProc) Wait() error       { return errKilled }
func (p *lateErrProc) PID() int          { return -1 }

// TestRunJoinsOutputReader: Run kills the worker on a fail path and
// returns only once that worker's output reader is done, so nothing
// narrates after Run has returned.
func TestRunJoinsOutputReader(t *testing.T) {
	var returned atomic.Bool
	cfg := Config{
		Spec:      testSpec(t.TempDir(), 3),
		Spawn:     &scriptSpawner{next: func(int) Proc { return &lateErrProc{killed: make(chan struct{})} }},
		HBTimeout: DefaultHBTimeout,
		Logf: func(format string, args ...any) {
			if returned.Load() {
				t.Errorf("Logf after Run returned: %s", fmt.Sprintf(format, args...))
			}
		},
	}
	_, err := Run(cfg)
	returned.Store(true)
	if err == nil || !strings.Contains(err.Error(), "worker fatal: wedged") {
		t.Fatalf("want a fatal error, got %v", err)
	}
	time.Sleep(50 * time.Millisecond) // room for a reader Run did not join to narrate
}

// TestParseWorkerArgsChecksSizes: a worker refuses the checkpoint sizes
// fraudsupervise refuses, so a spec reaching it by another way cannot
// mean a default it did not say; a valid spec round-trips through Args.
func TestParseWorkerArgsChecksSizes(t *testing.T) {
	for _, args := range [][]string{
		{"-checkpoint-retain", "0"}, {"-checkpoint-retain", "-1"}, {"-checkpoint-every", "-1"},
	} {
		_, err := ParseWorkerArgs(append([]string{"-dir", t.TempDir()}, args...))
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%q: %v, want a refusal naming %s", args, err, args[0])
		}
	}
	want := testSpec(t.TempDir(), 3)
	got, err := ParseWorkerArgs(want.Args())
	if err != nil {
		t.Fatal(err)
	}
	if got.Retain != want.Retain || got.CheckpointEvery != want.CheckpointEvery || got.Dir != want.Dir {
		t.Errorf("round trip: %+v, want %+v", got, want)
	}
}
