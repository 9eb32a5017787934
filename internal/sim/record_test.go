// The recorder: every determinism claim in this package says that this
// run's bytes equal the one-worker reference run's, so each (seed,
// shape) world's reference is simulated once per test binary and
// recorded: the canonical digest, the hash of each phase's events, the
// hash of the reference FRSNAP frame at every day boundary of the
// every-boundary worlds, and whole frames at the restore points. A variant run fails at the first phase whose events, or the
// first day boundary whose state, differs from the recording, and names
// it. A checkpoint is taken only between days, so those are the only
// boundaries with a state to compare.
//
// To add a world, add it to the table below. Every recorded world is
// then held to the companion laws (TestGoldenCompanionInvariants) and to
// a digest of its own (TestDifferentSeedsDiverge); the checks that
// should run against it name it by seed.
package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eventlog"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// matrixConfig spans the Y1Q2 window start (day 90) so the sharded
// window folds and position histograms see real coverage.
func matrixConfig(seed uint64) sim.Config {
	cfg := goldenConfig()
	cfg.Seed = seed
	cfg.Days = 110
	cfg.QueriesPerDay = 600
	return cfg
}

// sweepConfig is small enough to hash and encode after every phase under
// the race detector.
func sweepConfig(seed uint64) sim.Config {
	cfg := matrixConfig(seed)
	cfg.Days = 8
	cfg.QueriesPerDay = 300
	cfg.InitialLegit = 100
	return cfg
}

// emptyConfig has no queries, no advertisers and no arrivals: serving
// fans out over empty blocks, and the agents and detection loops have
// nothing to visit.
func emptyConfig() sim.Config {
	cfg := matrixConfig(3)
	cfg.Days = 5
	cfg.QueriesPerDay = 0
	cfg.InitialLegit = 0
	cfg.RegistrationsPerDay = 0
	return cfg
}

// at is the boundary before day's phase p, numbered by the phases a run
// has stepped to reach it.
func at(day int, p sim.Phase) int { return 4*day + int(p) }

// phaseName names the k-th phase a run steps, from 0.
func phaseName(k int) string { return fmt.Sprintf("day %d %s", k/4, sim.Phase(k%4)) }

// betweenDays reports whether boundary k is a day boundary, the only kind
// a checkpoint is taken at.
func betweenDays(k int) bool { return k%4 == int(sim.PhaseArrivals) }

// y1q2Day, the restore point, is a day boundary inside Y1Q2, with the
// window lanes mid-accumulation. sweepDrawAhead is a sweep world's
// agents→serving boundary, where a run holds the day's queries drawn
// ahead and not yet served.
var (
	y1q2Day        = at(100, sim.PhaseArrivals)
	sweepDrawAhead = at(5, sim.PhaseServing)
)

// world is one entry of the recorder's table.
type world struct {
	name   string
	cfg    sim.Config // the shape; each run sets its worker count
	every  bool       // hash the reference frame at every day boundary
	keep   []int      // day boundaries whose reference frames are kept whole
	result bool       // keep the Result, for tests that read more than its digest

	once sync.Once
	rec  *recording
	err  error
}

var (
	goldenWorld  = &world{name: "golden", cfg: goldenConfig(), result: true}
	emptyWorld   = &world{name: "empty", cfg: emptyConfig()}
	matrixWorlds = map[uint64]*world{} // full runs at matrixConfig's shape
	sweepWorlds  = map[uint64]*world{} // every-boundary runs at sweepConfig's shape
	allWorlds    = []*world{goldenWorld, emptyWorld}
)

func init() {
	for _, seed := range []uint64{7, 11, 23, 31} {
		matrixWorlds[seed] = &world{name: fmt.Sprintf("seed=%d", seed), cfg: matrixConfig(seed),
			keep: []int{y1q2Day}}
		allWorlds = append(allWorlds, matrixWorlds[seed])
	}
	for _, seed := range []uint64{17, 29, 43} {
		sweepWorlds[seed] = &world{name: fmt.Sprintf("seed=%d", seed), cfg: sweepConfig(seed),
			every: true}
		allWorlds = append(allWorlds, sweepWorlds[seed])
	}
}

// worlds looks seeds up in a world map.
func worlds(m map[uint64]*world, seeds ...uint64) []*world {
	ws := make([]*world, len(seeds))
	for i, seed := range seeds {
		ws[i] = m[seed]
	}
	return ws
}

// recording is what a world's one-worker reference run left behind.
type recording struct {
	name    string
	cfg     sim.Config
	res     *sim.Result         // kept only where the world asks for it
	laws    error               // the result's companion-law violations
	digest  []byte              // canonical digest bytes
	phases  []phase             // phases[k]: the k-th phase the run stepped
	frameAt [][sha256.Size]byte // frameAt[k]: the reference frame's hash before phases[k]; the last is the horizon
	frames  map[int][]byte      // reference frames at the world's keep boundaries
}

// phase is what a recording keeps of one phase: its event count and the
// hash of its events.
type phase struct {
	events int
	log    [sha256.Size]byte
}

// record returns w's recording, running the reference on first use.
func (w *world) record(t testing.TB) *recording {
	t.Helper()
	w.once.Do(func() { w.rec, w.err = w.run() })
	if w.err != nil {
		t.Fatalf("recording %s: %v", w.name, w.err)
	}
	return w.rec
}

func (w *world) run() (*recording, error) {
	if n := reflect.TypeOf(eventlog.Event{}).NumField(); n != 13 {
		return nil, fmt.Errorf("eventlog.Event has %d fields; phaseLog.Append hashes 13", n)
	}
	cfg := w.cfg
	log := newPhaseLog()
	cfg.Events = log
	s := sim.New(cfg)
	s.SetWorkers(1)
	rec := &recording{name: w.name, cfg: w.cfg, frameAt: [][sha256.Size]byte{{}}, frames: map[int][]byte{}}
	for more := true; more; {
		more = s.StepPhase()
		n, sum := log.cut()
		rec.phases = append(rec.phases, phase{n, sum})
		k := len(rec.phases)
		var frameSum [sha256.Size]byte // zero where the world hashes no frame
		if w.every && betweenDays(k) || slices.Contains(w.keep, k) {
			frame, err := sim.ReferenceFrame(s)
			if err != nil {
				return nil, err
			}
			frameSum = sha256.Sum256(frame)
			if slices.Contains(w.keep, k) {
				rec.frames[k] = frame
			}
		}
		rec.frameAt = append(rec.frameAt, frameSum)
	}
	res := s.Finish()
	rec.laws = companionLaws(res)
	if w.result {
		rec.res = res
	}
	var err error
	rec.digest, err = testutil.MarshalStable(testutil.DigestResult(res))
	return rec, err
}

// phaseLog is an event sink that hashes each phase's events, every
// field of every record in emission order (run refuses to record if
// eventlog.Event gains a field Append does not hash), so two phases hash
// alike exactly when they emit the same records.
type phaseLog struct {
	h   hash.Hash
	n   int
	buf []byte
}

func newPhaseLog() *phaseLog { return &phaseLog{h: sha256.New()} }

func (l *phaseLog) Append(ev eventlog.Event) {
	b := append(l.buf[:0], byte(ev.Type), ev.Match, ev.Stage, ev.Flags)
	for _, v := range []int32{ev.Day, ev.Account, ev.Vertical, ev.Position, ev.N} {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ev.At))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ev.Amount))
	for _, str := range []string{ev.Country, ev.Reason} {
		b = append(binary.AppendUvarint(b, uint64(len(str))), str...)
	}
	l.h.Write(b)
	l.buf = b
	l.n++
}

// cut returns the event count and hash of the phase just run and starts
// the next phase's.
func (l *phaseLog) cut() (n int, sum [sha256.Size]byte) {
	n = l.n
	l.h.Sum(sum[:0])
	l.h.Reset()
	l.n = 0
	return n, sum
}

// start is a fresh run of rec's world at workers.
func (rec *recording) start(workers int) *sim.Sim {
	s := sim.New(rec.cfg)
	s.SetWorkers(workers)
	return s
}

// restore is a run restored from rec's frame at boundary k, at workers.
func (rec *recording) restore(t *testing.T, k, workers int) *sim.Sim {
	t.Helper()
	frame, ok := rec.frames[k]
	if !ok {
		t.Fatalf("%s keeps no frame before %s", rec.name, phaseName(k))
	}
	c, err := sim.DecodeCheckpoint(frame)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.Restore(c.State)
	if err != nil {
		t.Fatal(err)
	}
	if got := at(int(s.Day()), s.Phase()); got != k {
		t.Fatalf("%s: restored before %s, want before %s", rec.name, phaseName(got), phaseName(k))
	}
	s.SetWorkers(workers)
	return s
}

// follow steps s from boundary k to the horizon and holds it to rec:
// every phase's events must be the recorded ones, record for record and
// field for field, and the result must carry the recorded digest and obey the
// companion laws. check, if set, runs at every boundary the run reaches.
func follow(t *testing.T, rec *recording, s *sim.Sim, k int, check func(k int)) {
	t.Helper()
	log := newPhaseLog()
	s.SetEvents(log)
	for more := true; more; k++ {
		more = s.StepPhase()
		n, sum := log.cut()
		if want := rec.phases[k]; n != want.events || sum != want.log {
			t.Fatalf("%s: the events of %s differ from the recording's (%d events, recorded %d)",
				rec.name, phaseName(k), n, want.events)
		}
		if check != nil {
			check(k + 1)
		}
	}
	res := s.Finish()
	if got := digestOf(t, res); !bytes.Equal(got, rec.digest) {
		t.Fatalf("%s: digest differs from the recording's:\n%s", rec.name, testutil.Diff(string(rec.digest), string(got)))
	}
	if err := companionLaws(res); err != nil {
		t.Error(err)
	}
}

// checkLiveFrame holds the frame a save of s writes to the reference
// frame recorded at boundary k.
func checkLiveFrame(t *testing.T, rec *recording, s *sim.Sim, k int) {
	t.Helper()
	frame, err := sim.LiveFrame(s)
	if err != nil {
		t.Fatal(err)
	}
	if sha256.Sum256(frame) != rec.frameAt[k] {
		t.Fatalf("%s: the frame a save writes before %s differs from the recorded reference frame",
			rec.name, phaseName(k))
	}
}

// digestOf is a result's digest in canonical bytes.
func digestOf(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	b, err := testutil.MarshalStable(testutil.DigestResult(res))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// crashBaseline is the uninterrupted durable run of crashConfig(1234)
// that the kill-point and lineage sweeps converge on: its result's
// fingerprint and companion-law violations, and the replay digests of
// its event log.
var crashBaseline struct {
	once        sync.Once
	fingerprint string
	laws        error
	replay      testutil.CollectorDigestSet
	err         error
}

func baselineDigests(t *testing.T) (string, testutil.CollectorDigestSet) {
	t.Helper()
	b := &crashBaseline
	b.once.Do(func() { b.err = recordCrashBaseline() })
	if b.err != nil {
		t.Fatalf("crash baseline: %v", b.err)
	}
	return b.fingerprint, b.replay
}

func recordCrashBaseline() error {
	dir, err := os.MkdirTemp("", "crash-baseline-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := crashConfig(1234)
	d, err := sim.NewDurable(cfg, dir)
	if err != nil {
		return err
	}
	res, err := d.RunDays(sim.Lineage{}, 0, nil)
	if err != nil {
		return err
	}
	// Digest equality in the sweeps is only meaningful if the run does things.
	if res.Clicks == 0 || res.FraudClicks == 0 || res.Registrations == 0 {
		return fmt.Errorf("degenerate run: %d clicks, %d fraud, %d regs", res.Clicks, res.FraudClicks, res.Registrations)
	}
	col, err := dataset.ReplayDir(dir, cfg.Windows, cfg.SampleWindow)
	if err != nil {
		return err
	}
	b := &crashBaseline
	b.fingerprint, b.laws, b.replay = testutil.DigestResult(res).Fingerprint, companionLaws(res), testutil.CollectorDigests(col)
	return nil
}

// checkWorkers runs each world at each worker count against its
// recording, and at the world's restore points holds the frame a save
// writes to the recorded one.
func checkWorkers(t *testing.T, ws []*world, workers ...int) {
	for _, w := range ws {
		for _, n := range workers {
			t.Run(fmt.Sprintf("%s/workers=%d", w.name, n), func(t *testing.T) {
				t.Parallel()
				rec := w.record(t)
				s := rec.start(n)
				follow(t, rec, s, 0, func(k int) {
					if _, ok := rec.frames[k]; ok {
						checkLiveFrame(t, rec, s, k)
					}
				})
			})
		}
	}
}

// checkRestore restores each world from its frame at boundary k and
// finishes it at workers against the recording.
func checkRestore(t *testing.T, ws []*world, k, workers int) {
	for _, w := range ws {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			rec := w.record(t)
			follow(t, rec, rec.restore(t, k, workers), k, nil)
		})
	}
}

// TestParallelServingDigestMatrix and TestParallelDayLoopMatrix hold
// full runs of the matrix worlds, and of the golden world at two
// workers, to their recordings: every phase's events, the digest, and —
// these runs are the donors of the restore checks, continuing past the
// points they restore from — the frame a save writes at each restore
// point. Worker counts that do not divide the query volume exercise the
// uneven shard arithmetic. Under -race these runs are the data-race
// proof for the serving fan-out, the draw-ahead beside the agents phase,
// and the checkpoint encode's two halves.
func TestParallelServingDigestMatrix(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs a grid of simulations")
	}
	checkWorkers(t, worlds(matrixWorlds, 7, 31), 2, 4, 7)
	checkWorkers(t, []*world{goldenWorld}, 2)
}

func TestParallelDayLoopMatrix(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs a grid of simulations")
	}
	checkWorkers(t, worlds(matrixWorlds, 11, 23), 2, 4, 5, 7)
}

// TestEmptyWorld: a world with nothing in it runs clean and lands on the
// recorded digest at any worker count.
func TestEmptyWorld(t *testing.T) {
	t.Parallel()
	checkWorkers(t, []*world{emptyWorld}, 2, 4, 7)
}

// TestParallelCheckpointResume restores each matrix world from its
// frame at the day-100 boundary, inside Y1Q2, and finishes it at five
// workers on the recording's events and digest. The frame is the
// one-worker reference's; the matrix checks prove the donor runs above
// one worker write the same bytes there and finish on the same digest.
func TestParallelCheckpointResume(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs several partial simulations")
	}
	checkRestore(t, worlds(matrixWorlds, 7, 11, 23, 31), y1q2Day, 5)
}

// TestPhaseBoundaryCheckpointResume holds the reference frame of
// sweep-world runs at two, four and seven workers to the recording's at
// every day boundary, the horizon included, after a day whose serving
// phase took the queries the agents phase drew ahead: Snapshot must see
// the generator where the recording's did.
func TestPhaseBoundaryCheckpointResume(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs several partial simulations")
	}
	for _, w := range worlds(sweepWorlds, 17, 29, 43) {
		for _, n := range []int{2, 4, 7} {
			t.Run(fmt.Sprintf("every-boundary/%s/workers=%d", w.name, n), func(t *testing.T) {
				t.Parallel()
				rec := w.record(t)
				s := rec.start(n)
				follow(t, rec, s, 0, func(k int) {
					if !betweenDays(k) {
						return
					}
					frame, err := sim.ReferenceFrame(s)
					if err != nil {
						t.Fatal(err)
					}
					if sha256.Sum256(frame) != rec.frameAt[k] {
						t.Fatalf("%s: the snapshot before %s differs from the recording's", rec.name, phaseName(k))
					}
				})
			})
		}
	}
}

// TestLiveCheckpointMatchesReference holds the frame a save writes — the
// platform written straight from the live tables, its two halves on two
// goroutines — to the recorded reference frame at every day boundary of
// a two-worker sweep run.
func TestLiveCheckpointMatchesReference(t *testing.T) {
	t.Parallel()
	for _, w := range worlds(sweepWorlds, 17, 29, 43) {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			rec := w.record(t)
			s := rec.start(2)
			follow(t, rec, s, 0, func(k int) {
				if betweenDays(k) {
					checkLiveFrame(t, rec, s, k)
				}
			})
		})
	}
}

// TestDrawAheadBoundary stops three-worker sweep runs between the agents
// and serving phases of day 5, where the day's queries are drawn but not
// served, and serves them on a rebuilt engine of one worker or of four:
// SetWorkers changes only the fan-out, so both serve the queries already
// drawn.
func TestDrawAheadBoundary(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs several partial simulations")
	}
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("SetWorkers(%d)", n), func(t *testing.T) {
			t.Parallel()
			for _, w := range worlds(sweepWorlds, 17, 29, 43) {
				rec := w.record(t)
				s := rec.start(3)
				follow(t, rec, s, 0, func(k int) {
					if k == sweepDrawAhead {
						s.SetWorkers(n)
					}
				})
			}
		})
	}
}

// checkRun runs rec's world through Sim.Run, the whole-run entry point
// rather than the phase stepping the recorder drives, with SetWorkers(0)
// (GOMAXPROCS workers) and no event sink, and holds it to the digest the
// sink-attached one-worker recording produced.
func checkRun(t *testing.T, rec *recording) {
	t.Helper()
	res := rec.start(0).Run()
	if got := digestOf(t, res); !bytes.Equal(got, rec.digest) {
		t.Fatalf("%s: a sink-less run at GOMAXPROCS=%d diverged from the recording:\n%s",
			rec.name, runtime.GOMAXPROCS(0), testutil.Diff(string(rec.digest), string(got)))
	}
	if err := companionLaws(res); err != nil {
		t.Error(err)
	}
}

// TestDeterminism: a same-seed run through Sim.Run at the host's
// GOMAXPROCS, without a sink, lands on the recorded digest bytes.
func TestDeterminism(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	checkRun(t, sweepWorlds[17].record(t))
}

// TestSameSeedByteIdentical: a second fresh one-worker run of a sweep
// world emits the recorded events phase by phase and lands on the
// recorded digest bytes — every account, weekly and window aggregate,
// billing row and detection record, not just totals. It is the donor
// continuation of TestCrashCheckpointRoundTrip's day-4 save.
func TestSameSeedByteIdentical(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	rec := sweepWorlds[29].record(t)
	follow(t, rec, rec.start(1), 0, nil)
}

// TestSameSeedByteIdenticalEventLog extends the same-seed guarantee to
// the encoded event log: two same-seed runs writing through an
// eventlog.Writer produce byte-identical logs (emission order, varint
// encoding and string interning are deterministic) holding the recorded
// number of events, and the writer does not perturb the run — each
// lands on the digest the recording's hashing sink saw.
func TestSameSeedByteIdenticalEventLog(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs two simulations")
	}
	rec := sweepWorlds[43].record(t)
	recorded := 0
	for _, p := range rec.phases {
		recorded += p.events
	}
	runLogged := func() []byte {
		var buf bytes.Buffer
		w := eventlog.NewWriter(&buf)
		cfg := rec.cfg
		cfg.Events = w
		s := sim.New(cfg)
		s.SetWorkers(1)
		res := s.Run()
		if err := w.Err(); err != nil {
			t.Fatalf("event writer failed: %v", err)
		}
		if w.Events() != uint64(recorded) {
			t.Fatalf("the log holds %d events, recorded %d", w.Events(), recorded)
		}
		if got := digestOf(t, res); !bytes.Equal(got, rec.digest) {
			t.Fatalf("attaching an event writer perturbed the run:\n%s", testutil.Diff(string(rec.digest), string(got)))
		}
		return buf.Bytes()
	}
	if a, b := runLogged(), runLogged(); !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different event logs (%d vs %d bytes)", len(a), len(b))
	}
}

// TestDigestStableAcrossGOMAXPROCS is checkRun at GOMAXPROCS(1), so
// the default worker count differs from TestDeterminism's on a
// multi-core host. It does not run in parallel: GOMAXPROCS is global.
func TestDigestStableAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	rec := sweepWorlds[43].record(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	checkRun(t, rec)
}

// TestDifferentSeedsDiverge guards against the digest (or the engine)
// degenerating into something seed-independent: no two recorded worlds
// share a digest.
func TestDifferentSeedsDiverge(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("records every world")
	}
	seen := map[string]string{}
	for _, w := range allWorlds {
		d := string(w.record(t).digest)
		if other, ok := seen[d]; ok {
			t.Errorf("worlds %s and %s share a digest", other, w.name)
		}
		seen[d] = w.name
	}
}
