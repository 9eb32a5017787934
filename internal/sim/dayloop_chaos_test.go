// Chaos coverage for the parallel day loop: event recording is strictly
// best-effort, so a failing event sink may degrade the log (sticky
// writer errors, dropped records) but must never deadlock a phase
// barrier, lose a staged shard mutation, or perturb a seeded trajectory.
// Running under -race (make chaos) also proves the fault path is free of
// data races at workers > 1.
package sim_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/faultinject"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// chaosConfig is deliberately smaller than matrixConfig: the chaos suite
// cares about fault handling at every phase barrier, not window-lane
// coverage.
func chaosConfig() sim.Config {
	cfg := goldenConfig()
	cfg.Seed = 5
	cfg.Days = 60
	cfg.QueriesPerDay = 400
	return cfg
}

// runAt runs cfg to the horizon at the given worker count.
func runAt(cfg sim.Config, workers int) *sim.Result {
	s := sim.New(cfg)
	s.SetWorkers(workers)
	return s.Run()
}

// TestChaosFaultyEventSinkDayLoop runs the parallel day loop against an
// event log whose every underlying write fails from record one — a full
// disk under a live run. The run must complete (no phase barrier waits
// on a sink), the digest must match a fault-free run bit for bit (event
// recording is observation, never simulation state), and the writer must
// account for the degradation it absorbed.
func TestChaosFaultyEventSinkDayLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulations")
	}
	want := digestOf(t, runAt(chaosConfig(), 4))

	inj := faultinject.New(11)
	w := eventlog.NewWriter(inj.Writer("dayloop", io.Discard, faultinject.WriteFaults{ErrorRate: 1}))
	cfg := chaosConfig()
	cfg.Events = w
	got, err := testutil.MarshalStable(testutil.DigestResult(runAt(cfg, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("failing event sink perturbed the simulation:\n%s",
			testutil.Diff(string(want), string(got)))
	}

	// Recording degraded as designed: the first write failed, the error
	// stuck, and every later event was dropped — all accounted for.
	if w.Err() == nil {
		t.Fatal("event writer absorbed no failure; the fault profile never fired")
	}
	if w.Events() != 0 {
		t.Fatalf("writer claims %d events persisted through a 100%% failing sink", w.Events())
	}
	if w.Dropped() == 0 {
		t.Fatal("no events counted as dropped")
	}
	if st := inj.WriterStats("dayloop"); st.Failed == 0 || st.Failed != st.Writes {
		t.Fatalf("injector stats inconsistent: %+v", st)
	}
}

// TestChaosTornEventSinkDayLoop kills the event log mid-run — a crash
// profile that tears one record and fails every write after it. The
// agent and detection phases must keep applying their staged mutations
// (identical digests), and the writer must report the torn tail rather
// than absorbing it silently.
func TestChaosTornEventSinkDayLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulations")
	}
	want := digestOf(t, runAt(chaosConfig(), 3))

	inj := faultinject.New(29)
	w := eventlog.NewWriter(inj.Writer("dayloop", io.Discard, faultinject.WriteFaults{KillAfterWrites: 500}))
	cfg := chaosConfig()
	cfg.Events = w
	got, err := testutil.MarshalStable(testutil.DigestResult(runAt(cfg, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("mid-run event-log death perturbed the simulation:\n%s",
			testutil.Diff(string(want), string(got)))
	}
	if w.Err() != faultinject.ErrInjectedCrash {
		t.Fatalf("writer error = %v, want the injected crash", w.Err())
	}
	// The first underlying write is the log's magic header, so 500
	// surviving writes carry exactly 499 event frames.
	if w.Events() != 499 {
		t.Fatalf("writer persisted %d events, want exactly the 499 before the crash", w.Events())
	}
	if w.Dropped() == 0 {
		t.Fatal("no events counted as dropped after the crash point")
	}
}
