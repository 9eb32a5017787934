// Parallel-serving suite: serve.go's contract is that Workers is a pure
// throughput knob — every seeded outcome (dataset digests, billing,
// event records, RNG stream positions) is byte-identical across worker
// counts. These tests prove it two ways: a digest and event-log matrix
// across workers × seeds, and mid-run snapshot byte-equality plus
// checkpoint/resume across a worker-count change. The reference is the
// Workers = 1 run, which TestGoldenDatasetDigest pins to absolute bytes.
// CI runs the matrix under -race, which also makes it the data-race proof
// for the phase structure.
package sim_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/testutil"
)

// matrixConfig spans the Y1Q2 window start (day 90) so the sharded
// window folds and position histograms see real coverage — detConfig's
// 60 days would leave the window lanes untested.
func matrixConfig(seed uint64, workers int) sim.Config {
	cfg := goldenConfig()
	cfg.Seed = seed
	cfg.Days = 110
	cfg.QueriesPerDay = 600
	cfg.Workers = workers
	return cfg
}

// TestParallelServingDigestMatrix is the acceptance matrix: for each
// seed, Workers ∈ {2, 4, 7} must produce dataset digests byte-identical
// to the Workers = 1 run — not just totals, but every account aggregate,
// float spend sum, ledger entry and detection record — and the same
// event log, record for record. Worker counts that do not divide the
// query volume exercise the uneven shard-boundary arithmetic.
func TestParallelServingDigestMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a grid of simulations")
	}
	for _, seed := range []uint64{7, 31} {
		one, oneLog := runDigestAndLog(t, matrixConfig(seed, 1))
		for _, workers := range []int{2, 4, 7} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				got, gotLog := runDigestAndLog(t, matrixConfig(seed, workers))
				if !bytes.Equal(one, got) {
					t.Fatalf("workers=%d diverged from the one-worker run:\n%s",
						workers, testutil.Diff(string(one), string(got)))
				}
				diffEvents(t, oneLog, gotLog)
			})
		}
	}
}

// TestParallelCheckpointResume proves worker count is orthogonal to the
// checkpoint trajectory: a three-worker run and a one-worker run snapshot
// byte-identically mid-window, and a run resumed from the three-worker
// snapshot with yet another worker count finishes on the same digest as
// both uninterrupted runs.
func TestParallelCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several partial simulations")
	}
	const snapDay = 100 // inside Y1Q2, so window lanes are mid-accumulation

	stepTo := func(s *sim.Sim, day int) {
		t.Helper()
		for int(s.Day()) < day {
			if !s.Step() {
				t.Fatal("horizon ended before snapshot day")
			}
		}
	}
	encode := func(s *sim.Sim) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(s.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	par := sim.New(matrixConfig(13, 3))
	one := sim.New(matrixConfig(13, 1))
	stepTo(par, snapDay)
	stepTo(one, snapDay)

	// Workers is the one config field allowed to differ; normalize it and
	// the remaining state must be byte-identical — platform tables, RNG
	// stream positions, collector aggregates, everything.
	par.SetWorkers(0)
	one.SetWorkers(0)
	parBytes, oneBytes := encode(par), encode(one)
	if !bytes.Equal(parBytes, oneBytes) {
		t.Fatalf("mid-run snapshots differ between the three-worker and one-worker runs (%d vs %d bytes)",
			len(parBytes), len(oneBytes))
	}

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

	// Resume from the three-worker snapshot with a third worker count.
	var st sim.State
	if err := gob.NewDecoder(bytes.NewReader(parBytes)).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resumed, err := sim.Restore(&st)
	if err != nil {
		t.Fatal(err)
	}
	resumed.SetWorkers(5)

	want := digestBytes(t, matrixConfig(13, 3))
	if got := finish(resumed); !bytes.Equal(want, got) {
		t.Fatalf("resume with different worker count diverged:\n%s",
			testutil.Diff(string(want), string(got)))
	}
	if got := finish(one); !bytes.Equal(want, got) {
		t.Fatalf("one-worker continuation diverged from the three-worker run:\n%s",
			testutil.Diff(string(want), string(got)))
	}
}
