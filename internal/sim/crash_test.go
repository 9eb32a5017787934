// Crash-chaos suite: the checkpoint/recovery subsystem's contract is
// that kill -9 at an arbitrary moment costs nothing but the tail since
// the last checkpoint — recover + restore + continue lands on the exact
// deterministic trajectory of a run that never crashed. These tests
// prove it at dataset-digest granularity across a sweep of seeded kill
// points, tearing the event log's unsealed tail the way a dead process
// would. (`make crash` runs TestCrash*.)
package sim_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/sim"
	"repro/internal/stats"
)

// crashConfig is deliberately small: the sweep below simulates a couple
// dozen partial runs.
func crashConfig(seed uint64) sim.Config {
	cfg := sim.SmallConfig()
	cfg.Seed = seed
	cfg.Days = 26
	cfg.QueriesPerDay = 350
	cfg.RegistrationsPerDay = 10
	cfg.InitialLegit = 150
	return cfg
}

// newDurable starts a fresh crashConfig(1234) run logging into dir.
func newDurable(t *testing.T, dir string) *sim.Durable {
	t.Helper()
	d, err := sim.NewDurable(crashConfig(1234), dir)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runDurable runs d to the horizon, checkpointing into lin.
func runDurable(t *testing.T, d *sim.Durable, lin sim.Lineage, every int) *sim.Result {
	t.Helper()
	res, err := d.RunDays(lin, every, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCrashResumeDigestIdentical is the acceptance sweep: for 21 seeded
// kill points spread over the horizon, crash the run (abandoning the
// writer and tearing the unsealed tail at a seeded byte offset), then
// recover the log, restore the latest checkpoint, and run to the end.
// Both the final result digest and the replayed-log digests must equal
// the uninterrupted run's, every time.
func TestCrashResumeDigestIdentical(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs many partial simulations")
	}
	wantFP, wantReplay := baselineDigests(t)
	const every = 4

	for crashDay := 5; crashDay <= 25; crashDay++ {
		crashDay := crashDay
		t.Run(fmt.Sprintf("killday=%d", crashDay), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			lin := sim.Lineage{Path: filepath.Join(t.TempDir(), "checkpoint.frsnap")}
			crashAt(t, newDurable(t, dir), lin, every, crashDay, nil)

			// Tear the unsealed tail at a seeded offset, simulating the
			// final write dying partway to the platter.
			rng := stats.NewRNG(uint64(crashDay) * 7919)
			tmps, _ := filepath.Glob(filepath.Join(dir, "events-*.evlog"+eventlog.TmpSuffix))
			for _, tmp := range tmps {
				b, err := os.ReadFile(tmp)
				if err != nil {
					t.Fatal(err)
				}
				keep := int(rng.Float64() * float64(len(b)+1))
				if err := os.WriteFile(tmp, b[:keep], 0o644); err != nil {
					t.Fatal(err)
				}
			}

			// Recover + restore + continue: the resume path fraudsim runs.
			d := resumeDurable(t, dir, lin)
			if gotDay := int(d.Sim.Day()); gotDay > crashDay || crashDay-gotDay >= 2*every {
				t.Fatalf("checkpoint at day %d is stale for crash at day %d", gotDay, crashDay)
			}
			checkCanonical(t, dir, runDurable(t, d, lin, every), wantFP, wantReplay)
		})
	}
}

// TestCrashCheckpointRoundTrip takes the reference frame through a
// mid-run save: at day 4 of a one-worker sweep run, two reference frames
// are the same bytes and hash to the recorded frame, and a Sim restored
// from one finishes at two workers on the recording's events and digest.
// The donor's own continuation is TestSameSeedByteIdentical's run.
func TestCrashCheckpointRoundTrip(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	rec := sweepWorlds[29].record(t)
	s := rec.start(1)
	for s.Day() < 4 {
		s.Step()
	}
	frame, err := sim.ReferenceFrame(s)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := sim.ReferenceFrame(s); err != nil || !bytes.Equal(frame, again) {
		t.Fatalf("the reference frame is not byte-deterministic (%v)", err)
	}
	mid := at(4, sim.PhaseArrivals)
	if sha256.Sum256(frame) != rec.frameAt[mid] {
		t.Fatalf("%s: the frame before %s differs from the recording's", rec.name, phaseName(mid))
	}
	c, err := sim.DecodeCheckpoint(frame)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := sim.Restore(c.State)
	if err != nil {
		t.Fatal(err)
	}
	restored.SetWorkers(2)
	follow(t, rec, restored, mid, nil)
}

// TestCrashCheckpointFileRoundTrip covers the file layer: atomic write,
// validated read, and rejection of a corrupted byte.
func TestCrashCheckpointFileRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	cfg := crashConfig(5)
	cfg.Days = 8
	s := sim.New(cfg)
	for int(s.Day()) < 4 {
		s.Step()
	}
	path := filepath.Join(t.TempDir(), "ck.frsnap")
	if err := s.WriteCheckpointFile(path, sim.LogPosition{NextSegment: 3, Events: 42}); err != nil {
		t.Fatal(err)
	}
	c, err := sim.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Log.NextSegment != 3 || c.Log.Events != 42 || c.State.Day != s.Day() {
		t.Fatalf("checkpoint round trip: %+v, day %d", c.Log, c.State.Day)
	}
	if _, err := sim.Restore(c.State); err != nil {
		t.Fatal(err)
	}

	// Any single corrupted byte must be caught by the CRC (or the magic
	// check), never decoded into a half-broken sim.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 6, len(b) / 2, len(b) - 1} {
		mut := bytes.Clone(b)
		mut[i] ^= 0x20
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.ReadCheckpoint(path); err == nil {
			t.Errorf("corrupted byte %d accepted", i)
		}
	}
}
