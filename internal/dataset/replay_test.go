package dataset_test

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eventlog"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// replayConfig is a short but non-trivial run: it spans warmup, the
// study epoch, detections and re-registrations, so every event type and
// every Collector fold is exercised.
func replayConfig() sim.Config {
	cfg := sim.SmallConfig()
	cfg.Seed = 7
	cfg.Days = 60
	cfg.QueriesPerDay = 800
	cfg.RegistrationsPerDay = 10
	cfg.InitialLegit = 250
	return cfg
}

// TestReplayReproducesCollectorDigests is the tentpole round-trip
// guarantee: simulate with an event-log sink attached, then rebuild a
// fresh Collector from the log alone, and require the rebuilt Collector
// to produce the exact canonical digests of the in-memory one — every
// weekly aggregate, window aggregate, position histogram, bid-book
// entry, sample-window counter and detection record.
func TestReplayReproducesCollectorDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	var buf bytes.Buffer
	w := eventlog.NewWriter(&buf)
	cfg := replayConfig()
	cfg.Events = w
	res := sim.New(cfg).Run()
	if err := w.Err(); err != nil {
		t.Fatalf("event writer failed: %v", err)
	}
	want := testutil.CollectorDigests(res.Collector)

	col := dataset.NewCollector(cfg.Windows, cfg.SampleWindow)
	rep := dataset.NewReplayer(col)
	rd := eventlog.NewReader(bytes.NewReader(buf.Bytes()), eventlog.Filter{})
	for {
		var ev eventlog.Event
		err := rd.Next(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		rep.Append(ev)
	}
	got := testutil.CollectorDigests(col)
	if got != want {
		t.Fatalf("replayed collector diverged from in-memory collector:\n got %+v\nwant %+v", got, want)
	}
}

// TestReplayDirEquivalence proves the segmented on-disk path (DirWriter
// rotation + ScanDir) reproduces the same digests as the in-memory one.
func TestReplayDirEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	dir := filepath.Join(t.TempDir(), "log")
	dw, err := eventlog.NewDirWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := replayConfig()
	cfg.Events = dw
	s := sim.New(cfg)
	for s.Step() {
		if s.Day()%20 == 0 {
			dw.Rotate() // several segments in a short run
		}
	}
	res := s.Finish()
	if err := dw.Close(); err != nil {
		t.Fatalf("dir writer: %v", err)
	}
	segs, err := eventlog.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %v", segs)
	}

	col, err := dataset.ReplayDir(dir, cfg.Windows, cfg.SampleWindow)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got, want := testutil.CollectorDigests(col), testutil.CollectorDigests(res.Collector); got != want {
		t.Fatalf("segmented replay diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestReplayerOrderInsensitiveAcrossAccounts proves the aggregate folds
// commute across accounts: replaying a stream reordered by account —
// with each account's own events kept in order — reproduces the same
// activity/window/click digests. This is the property sharded serving
// relies on when per-shard logs are fanned back in. (Only the raw
// detection record *list* retains stream order, so it is excluded.)
func TestReplayerOrderInsensitiveAcrossAccounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	var sink eventlog.SliceSink
	cfg := replayConfig()
	cfg.Days = 30
	cfg.Events = &sink
	sim.New(cfg).Run()

	replay := func(events []eventlog.Event) testutil.CollectorDigestSet {
		col := dataset.NewCollector(cfg.Windows, cfg.SampleWindow)
		rep := dataset.NewReplayer(col)
		for _, ev := range events {
			rep.Append(ev)
		}
		set := testutil.CollectorDigests(col)
		set.Detections = testutil.DatasetDigest{}
		return set
	}

	// Stable partition by account parity: every odd-account event after
	// every even-account one, per-account order preserved.
	reordered := make([]eventlog.Event, 0, len(sink.Events))
	for _, ev := range sink.Events {
		if ev.Account%2 == 0 {
			reordered = append(reordered, ev)
		}
	}
	for _, ev := range sink.Events {
		if ev.Account%2 != 0 {
			reordered = append(reordered, ev)
		}
	}

	if got, want := replay(reordered), replay(sink.Events); got != want {
		t.Fatalf("replay is order-sensitive across accounts:\n got %+v\nwant %+v", got, want)
	}
}

// BenchmarkReplayDir replays the log of the bench `recover` workload's
// shape at seed 42 (603 919 events, two segments). Run it at -cpu 1,2:
// ScanFiles decodes on a goroutine of its own, so the second P is what
// lets the decode of one batch overlap the fold of the last.
func BenchmarkReplayDir(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Seed, cfg.Days, cfg.QueriesPerDay, cfg.InitialLegit, cfg.RegistrationsPerDay = 42, 40, 1500, 400, 12
	dir := filepath.Join(b.TempDir(), "log")
	dw, err := eventlog.NewDirWriter(dir)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Events = dw
	sim.New(cfg).Run()
	if err := dw.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.ReplayDir(dir, cfg.Windows, cfg.SampleWindow); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dw.Events())*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
