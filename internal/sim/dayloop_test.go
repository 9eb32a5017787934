// Day-loop parallelism suite: Workers is a pure throughput knob for the
// whole day — serving fans out, and above one worker the agents phase
// runs beside the query draw-ahead — and these tests prove it the same
// three ways serve_test.go proves the serving half: a full-run
// differential matrix (digests AND merged event logs, byte for byte,
// across workers × seeds), a checkpoint taken at a mid-day phase boundary
// and resumed at a different worker count, and the phase-cursor state
// machine itself. CI runs the matrix under -race, which doubles as the
// data-race proof for the draw-ahead beside the agents' steps.
package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// runDigestAndLog runs a config to completion with a slice sink attached
// and returns the canonical digest bytes plus every event the run
// emitted, in emission order.
func runDigestAndLog(t *testing.T, cfg sim.Config) ([]byte, []eventlog.Event) {
	t.Helper()
	var sink eventlog.SliceSink
	cfg.Events = &sink
	b, err := testutil.MarshalStable(testutil.DigestResult(sim.New(cfg).Run()))
	if err != nil {
		t.Fatal(err)
	}
	return b, sink.Events
}

// diffEvents fails the test at the first record where two event streams
// disagree (or on a length mismatch).
func diffEvents(t *testing.T, want, got []eventlog.Event) {
	t.Helper()
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			t.Fatalf("event %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if len(want) != len(got) {
		t.Fatalf("event log has %d records, reference log has %d", len(got), len(want))
	}
}

// TestParallelDayLoopMatrix is the acceptance matrix for the whole day
// loop: for each seed, Workers ∈ {2, 5} must reproduce the one-worker
// run's dataset digests AND its event log byte for byte — registrations,
// campaign edits, impressions, detections, every record in the same
// order. Unlike the serving-only matrix this exercises the agents phase
// beside the query draw-ahead, and the detection sweep, on every
// simulated day.
func TestParallelDayLoopMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a grid of simulations")
	}
	for _, seed := range []uint64{11, 23} {
		oneDigest, oneLog := runDigestAndLog(t, matrixConfig(seed, 1))
		for _, workers := range []int{2, 5} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				gotDigest, gotLog := runDigestAndLog(t, matrixConfig(seed, workers))
				if !bytes.Equal(oneDigest, gotDigest) {
					t.Fatalf("workers=%d diverged from the one-worker day loop:\n%s",
						workers, testutil.Diff(string(oneDigest), string(gotDigest)))
				}
				diffEvents(t, oneLog, gotLog)
			})
		}
	}
}

// TestEmptyWorld runs a world with no queries, no advertisers and no
// arrivals: serving fans out over empty blocks, and the agents and
// detection loops have nothing to visit. That must run clean and land
// on one digest at any worker count.
func TestEmptyWorld(t *testing.T) {
	empty := func(workers int) sim.Config {
		cfg := matrixConfig(3, workers)
		cfg.Days = 5
		cfg.QueriesPerDay = 0
		cfg.InitialLegit = 0
		cfg.RegistrationsPerDay = 0
		return cfg
	}
	oneDigest, oneLog := runDigestAndLog(t, empty(1))
	gotDigest, gotLog := runDigestAndLog(t, empty(4))
	if !bytes.Equal(oneDigest, gotDigest) {
		t.Fatalf("workers=4 diverged from the one-worker run:\n%s",
			testutil.Diff(string(oneDigest), string(gotDigest)))
	}
	diffEvents(t, oneLog, gotLog)
}

// TestPhaseBoundaryCheckpointResume checkpoints between the agent and
// serving phases of a mid-run day — a boundary that only exists because
// StepPhase exposes the phase cursor — and proves the snapshot is
// portable across worker counts: a workers=3 run snapshotted mid-day,
// restored, and finished at workers=6 lands on the same digest as an
// uninterrupted one-worker run, and so does the donor run it was
// snapshotted from.
func TestPhaseBoundaryCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several partial simulations")
	}
	const snapDay = 100 // inside Y1Q2, so window lanes are mid-accumulation

	s := sim.New(matrixConfig(17, 3))
	for int(s.Day()) < snapDay || s.Phase() != sim.PhaseServing {
		if !s.StepPhase() {
			t.Fatal("horizon ended before the snapshot boundary")
		}
	}

	resumed := restoreThroughGob(t, s)
	if resumed.Phase() != sim.PhaseServing || int(resumed.Day()) != snapDay {
		t.Fatalf("restored at day %d phase %s, want day %d phase %s",
			resumed.Day(), resumed.Phase(), snapDay, sim.PhaseServing)
	}
	resumed.SetWorkers(6)

	finish := func(s *sim.Sim) []byte {
		t.Helper()
		for s.Step() {
		}
		b, err := testutil.MarshalStable(testutil.DigestResult(s.Finish()))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	want := digestBytes(t, matrixConfig(17, 1))
	if got := finish(resumed); !bytes.Equal(want, got) {
		t.Fatalf("resume at a different worker count diverged:\n%s",
			testutil.Diff(string(want), string(got)))
	}
	if got := finish(s); !bytes.Equal(want, got) {
		t.Fatalf("donor run diverged after its mid-phase snapshot:\n%s",
			testutil.Diff(string(want), string(got)))
	}

	// The same portability at every boundary there is, not one: the
	// snapshot bytes of a run at any worker count equal the one-worker
	// run's after every single phase, the horizon included. The
	// agents→serving boundaries are the ones the draw-ahead could break
	// (the generator is a day ahead there and Snapshot must say it is
	// not); the last one is the horizon case (no draw for a day that is
	// never served). A small world and a short horizon keep the encodes
	// cheap under the race detector.
	sweepConfig := func(seed uint64, workers int) sim.Config {
		cfg := matrixConfig(seed, workers)
		cfg.Days = 8
		cfg.QueriesPerDay = 300
		cfg.InitialLegit = 100
		return cfg
	}
	for _, seed := range []uint64{17, 29, 43} {
		want := boundarySnapshots(t, sweepConfig(seed, 1))
		for _, workers := range []int{2, 4} {
			t.Run(fmt.Sprintf("every-boundary/seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				got := boundarySnapshots(t, sweepConfig(seed, workers))
				if len(got) != len(want) {
					t.Fatalf("%d phase boundaries, one-worker run has %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("snapshot after day %d phase %s differs from the one-worker run's",
							i/4, sim.Phase(i%4))
					}
				}
			})
		}
	}
}

// restoreThroughGob snapshots s, sends the state through a gob encode and
// decode as a checkpoint would, and restores a new Sim from it.
func restoreThroughGob(t *testing.T, s *sim.Sim) *sim.Sim {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var st sim.State
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatal(err)
	}
	restored, err := sim.Restore(&st)
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// boundarySnapshots steps a run to its horizon one phase at a time and
// returns a hash of the gob-encoded Snapshot taken after every phase.
// Workers, the one config field allowed to differ between runs, is
// zeroed in the encoded state.
func boundarySnapshots(t *testing.T, cfg sim.Config) [][sha256.Size]byte {
	t.Helper()
	s := sim.New(cfg)
	var out [][sha256.Size]byte
	var buf bytes.Buffer
	for more := true; more; {
		more = s.StepPhase()
		st := s.Snapshot()
		st.Config.Workers = 0
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		out = append(out, sha256.Sum256(buf.Bytes()))
	}
	return out
}

// TestDrawAheadBoundary stops a workers=3 run between the agents and
// serving phases of a mid-run day, where the day's queries are drawn but
// not served, and takes each way out of that boundary the draw-ahead has
// to survive: serving on a rebuilt engine of one worker (SetWorkers(1))
// or of four (SetWorkers(4)), and on a Sim restored from a snapshot,
// which holds no drawn queries and must redraw the same ones. Each must
// finish on the one-worker run's digest and event log, record for record.
func TestDrawAheadBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several partial simulations")
	}
	const snapDay = 25
	config := func(workers int) sim.Config {
		cfg := matrixConfig(17, workers)
		cfg.Days = 40
		return cfg
	}
	wantDigest, wantLog := runDigestAndLog(t, config(1))

	for _, tc := range []struct {
		name string
		exit func(t *testing.T, s *sim.Sim, sink eventlog.Sink) *sim.Sim
	}{
		{"SetWorkers(1)", func(_ *testing.T, s *sim.Sim, _ eventlog.Sink) *sim.Sim { s.SetWorkers(1); return s }},
		{"SetWorkers(4)", func(_ *testing.T, s *sim.Sim, _ eventlog.Sink) *sim.Sim { s.SetWorkers(4); return s }},
		{"restore", func(t *testing.T, s *sim.Sim, sink eventlog.Sink) *sim.Sim {
			restored := restoreThroughGob(t, s)
			restored.SetEvents(sink)
			return restored
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sink eventlog.SliceSink
			cfg := config(3)
			cfg.Events = &sink
			s := sim.New(cfg)
			for int(s.Day()) < snapDay || s.Phase() != sim.PhaseServing {
				if !s.StepPhase() {
					t.Fatal("horizon ended before the boundary")
				}
			}
			s = tc.exit(t, s, &sink)
			for s.Step() {
			}
			got, err := testutil.MarshalStable(testutil.DigestResult(s.Finish()))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantDigest, got) {
				t.Fatalf("diverged from the one-worker run:\n%s", testutil.Diff(string(wantDigest), string(got)))
			}
			diffEvents(t, wantLog, sink.Events)
		})
	}
}

// TestStepPhaseSequencing pins the phase state machine: phases cycle
// arrivals → agents → serving → detection, the day advances only on the
// detection → arrivals edge, and StepPhase refuses to run past the
// horizon.
func TestStepPhaseSequencing(t *testing.T) {
	cfg := matrixConfig(7, 2)
	cfg.Days = 3
	cfg.QueriesPerDay = 100
	cfg.InitialLegit = 30
	s := sim.New(cfg)

	order := []sim.Phase{sim.PhaseArrivals, sim.PhaseAgents, sim.PhaseServing, sim.PhaseDetection}
	for day := 0; day < int(cfg.Days); day++ {
		for _, want := range order {
			if s.Phase() != want {
				t.Fatalf("day %d: phase = %s, want %s", day, s.Phase(), want)
			}
			if int(s.Day()) != day {
				t.Fatalf("phase %s: day = %d, want %d", want, s.Day(), day)
			}
			s.StepPhase()
		}
	}
	if s.Day() != cfg.Days || s.Phase() != sim.PhaseArrivals {
		t.Fatalf("after the horizon: day %d phase %s", s.Day(), s.Phase())
	}
	if s.StepPhase() {
		t.Fatal("StepPhase ran past the horizon")
	}
}
