package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/eventlog"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testutil"
)

// timedSink is the traced run's view of the event log: it stands
// between the sim and the DirWriter and times every call. It forwards
// AppendBatch, so the batched path the sim uses is the path timed.
type timedSink struct {
	dst   *eventlog.DirWriter
	d     time.Duration
	calls int64
}

func (t *timedSink) Append(ev eventlog.Event) {
	t0 := time.Now()
	t.dst.Append(ev)
	t.d += time.Since(t0)
	t.calls++
}

func (t *timedSink) AppendBatch(evs []eventlog.Event) {
	t0 := time.Now()
	t.dst.AppendBatch(evs)
	t.d += time.Since(t0)
	t.calls++
}

// durableTrace is what one traced durable run measured per layer.
type durableTrace struct {
	sr                    simRun
	finish, append, close time.Duration
	rotate, checkpoint    time.Duration
	checkpointMS          []float64
	rotations             int
}

// durableRun is a finished durable run: where it left its log and
// checkpoint lineage, and what the live run's datasets hash to.
type durableRun struct {
	logDir  string
	lineage sim.Lineage
	wall    time.Duration
	dayUS   []float64
	events  uint64
	bytes   uint64
	dropped uint64
	digest  string
	live    testutil.CollectorDigestSet
	trace   durableTrace
}

// writeDurable does what `fraudsim -eventlog DIR -checkpoint PATH
// -checkpoint-every 10 -sync rotate` does, through the same public
// calls, into a fresh dir.
func writeDurable(r *run, cfg sim.Config, dir string, parent int, traced bool) (*durableRun, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = r.tr
	}
	dr := &durableRun{logDir: filepath.Join(dir, "log"), lineage: sim.Lineage{Path: filepath.Join(dir, "ckpt")}}
	dt := &dr.trace

	t0 := time.Now()
	dw, err := eventlog.NewDirWriter(dr.logDir)
	if err != nil {
		return nil, err
	}
	dw.Sync = eventlog.SyncRotate
	var ts *timedSink
	if traced {
		ts = &timedSink{dst: dw}
		cfg.Events = ts
	} else {
		cfg.Events = dw
	}
	simID := tr.begin(parent, "sim")
	s := sim.New(cfg)
	checkpoint := func(day, parent int) error {
		if day == 0 || day%checkpointEvery != 0 {
			return nil
		}
		c0 := time.Now()
		if err := dw.Rotate(); err != nil {
			return err
		}
		c1 := time.Now()
		err := s.SaveCheckpointLineage(dr.lineage, sim.LogPosition{NextSegment: dw.NextSegment(), Events: dw.Events()})
		if traced {
			c2 := time.Now()
			dt.rotate += c1.Sub(c0)
			dt.checkpoint += c2.Sub(c1)
			dt.checkpointMS = append(dt.checkpointMS, c2.Sub(c1).Seconds()*1e3)
			dt.rotations++
			tr.add(parent, "rotate", c0, c1.Sub(c0), 0)
			tr.add(parent, "checkpoint", c1, c2.Sub(c1), 0)
		}
		return err
	}
	if err := dt.sr.drive(r, s, cfg.Days, simID, traced, checkpoint); err != nil {
		return nil, err
	}
	f0 := time.Now()
	res := s.Finish()
	dt.finish = time.Since(f0)
	tr.add(simID, "finish", f0, dt.finish, 0)
	tr.end(simID, int64(cfg.Days))
	c0 := time.Now()
	if err := dw.Close(); err != nil {
		return nil, fmt.Errorf("event log: %w", err)
	}
	dt.close = time.Since(c0)
	tr.add(parent, "eventlog.close", c0, dt.close, 0)
	dr.wall = time.Since(t0)
	if traced {
		dt.append = ts.d
		// One span for the whole run's appends: a span per call would be
		// hundreds of thousands.
		tr.add(simID, "eventlog.append", t0, ts.d, ts.calls)
	}

	dr.dayUS = dt.sr.dayUS
	dr.events, dr.bytes, dr.dropped = dw.Events(), dw.Bytes(), dw.Dropped()
	r.check(dw.Err() == nil, "DirWriter.Err: %v", dw.Err())
	r.check(dr.dropped == 0, "DirWriter dropped %d events", dr.dropped)
	r.checkResult(res)
	dr.digest = testutil.DigestResult(res).Fingerprint
	dr.live = testutil.CollectorDigests(res.Collector)
	return dr, nil
}

// checkLog asserts that the log on disk is healthy and rebuilds the
// live collector's datasets exactly.
func (r *run) checkLog(cfg sim.Config, logDir string, live testutil.CollectorDigestSet) error {
	rep, err := eventlog.RecoverDir(logDir, false)
	if err != nil {
		return err
	}
	r.check(rep.Healthy, "RecoverDir: %s", rep)
	col, err := dataset.ReplayDir(logDir, cfg.Windows, cfg.SampleWindow)
	if err != nil {
		return err
	}
	r.check(testutil.CollectorDigests(col) == live, "replayed collector digests differ from the live run's")
	return nil
}

func runDurable(r *run, root int) error {
	cfg := durableConfig(r)
	// Set-up is a short durable run into scratch: long enough to rotate
	// and checkpoint once, so the directories, the page cache and the
	// heap have seen every kind of write the measured jobs make.
	warm := cfg
	warm.Days = min(cfg.Days, checkpointEvery+1)
	err := r.setup(func() error {
		_, err := writeDurable(r, warm, filepath.Join(r.out, "warm"), 0, false)
		return err
	}, nil)
	if err != nil {
		return err
	}

	var traces []*durableRun
	dir := filepath.Join(r.out, "durable")
	err = r.batch(root, func(i, parent int, traced bool) (job, error) {
		cfg := cfg
		cfg.Seed = worldSeed(r.seed, i)
		dr, err := writeDurable(r, cfg, dir, parent, traced)
		if err != nil {
			return job{}, err
		}
		if i == 0 {
			r.checkDigest(dr.digest)
			if err := r.checkLog(cfg, dr.logDir, dr.live); err != nil {
				return job{}, err
			}
		}
		if traced {
			traces = append(traces, dr)
		}
		return job{wall: dr.wall, days: int(cfg.Days), dayUS: dr.dayUS}, nil
	})
	if err != nil || !r.traced {
		return err
	}

	n := float64(len(traces))
	sec := func(pick func(*durableRun) time.Duration) float64 {
		sum := 0.0
		for _, t := range traces {
			sum += pick(t).Seconds()
		}
		return sum / n
	}
	setSimPhases(r, func(pick func(simRun) time.Duration) float64 {
		return sec(func(t *durableRun) time.Duration { return pick(t.trace.sr) })
	})
	t0 := traces[0]
	segs, err := eventlog.Segments(t0.logDir)
	if err != nil {
		return err
	}
	var ckptBytes int64
	if fi, err := os.Stat(t0.lineage.Path); err == nil {
		ckptBytes = fi.Size()
	}
	appendS := sec(func(t *durableRun) time.Duration { return t.trace.append })
	rotateS := sec(func(t *durableRun) time.Duration { return t.trace.rotate })
	ckptS := sec(func(t *durableRun) time.Duration { return t.trace.checkpoint })
	closeS := sec(func(t *durableRun) time.Duration { return t.trace.close })
	finishS := sec(func(t *durableRun) time.Duration { return t.trace.finish })
	// The sim's phases contain the appends they make, so the parts that
	// should add up to the wall are phases + rotate + checkpoint + finish
	// + close.
	parts := sec(func(t *durableRun) time.Duration { return t.trace.sr.phaseSum() }) + rotateS + ckptS + finishS + closeS
	r.set("sim.finish_s", finishS)
	r.set("sim.days", float64(cfg.Days))
	r.set("eventlog.append_s", appendS)
	r.set("eventlog.events", float64(t0.events))
	r.set("eventlog.bytes", float64(t0.bytes))
	r.set("eventlog.segments", float64(len(segs)))
	r.set("eventlog.ns_per_event", ratio(appendS*1e9, float64(t0.events)))
	r.set("eventlog.bytes_per_event", ratio(float64(t0.bytes), float64(t0.events)))
	r.set("eventlog.rotate_s", rotateS)
	r.set("eventlog.rotations", float64(t0.trace.rotations))
	r.set("eventlog.close_s", closeS)
	r.set("eventlog.dropped", float64(t0.dropped))
	r.set("sim.checkpoint_s", ckptS)
	r.set("sim.checkpoints", float64(len(t0.trace.checkpointMS)))
	r.set("sim.checkpoint_ms_median", stats.Median(t0.trace.checkpointMS))
	r.set("sim.checkpoint_bytes", float64(ckptBytes))
	r.set("durable.sum_share", parts/sec(func(t *durableRun) time.Duration { return t.wall }))
	return nil
}

// A recover run holds several dozen cycles over one log, every one the
// same work, so what differs between them is the host. They are read in
// windows of recoverWindow consecutive cycles — the median and the
// recoverTailP cycle of each — and the run reports the best decile over
// the windows (see best).
const (
	recoverWindow = 5
	recoverTailP  = 0.75
)

func runRecover(r *run, root int) error {
	cfg := recoverConfig(r)
	dir := filepath.Join(r.out, "recover")
	var dr *durableRun
	err := r.setup(func() error {
		var err error
		dr, err = writeDurable(r, cfg, dir, 0, false)
		return err
	}, nil)
	if err != nil {
		return err
	}
	r.checkDigest(dr.digest)

	var replayS, readyUS, scanS, recoverS, loadS, restoreS []float64
	var plainS, tracedS []float64 // whole cycles, for the tracing overhead
	var restored *sim.Sim
	var ckpt *sim.Checkpoint
	start := time.Now()
	for i := 0; ; i++ {
		// In the traced run every second cycle records spans and adds a
		// ScanDir pass (a probe; it is not counted as overhead).
		var tr *tracer
		if r.traced && i%2 == 1 {
			tr = r.tr
		}
		// Each cycle starts from a collected heap: the collector and the
		// restored sim of the previous cycle are garbage by now, and would
		// otherwise be collected at a random point of this cycle's time.
		runtime.GC()
		id := tr.begin(root, "cycle")

		t0 := time.Now()
		col, err := dataset.ReplayDir(dr.logDir, cfg.Windows, cfg.SampleWindow)
		if err != nil {
			return err
		}
		t1 := time.Now()
		rep, err := eventlog.RecoverDir(dr.logDir, false)
		if err != nil {
			return err
		}
		t2 := time.Now()
		c, lrep, err := dr.lineage.Load()
		if err != nil {
			return fmt.Errorf("lineage %s: %w", lrep, err)
		}
		t3 := time.Now()
		s, err := sim.Restore(c.State)
		if err != nil {
			return err
		}
		t4 := time.Now()
		restored, ckpt = s, c

		if tr != nil {
			tr.add(id, "dataset.replay", t0, t1.Sub(t0), int64(rep.Events))
			tr.add(id, "eventlog.recover", t1, t2.Sub(t1), int64(rep.Events))
			tr.add(id, "lineage.load", t2, t3.Sub(t2), 0)
			tr.add(id, "sim.restore", t3, t4.Sub(t3), 0)
			tracedS = append(tracedS, time.Since(t0).Seconds())
			s0 := time.Now()
			if err := eventlog.ScanDir(dr.logDir, eventlog.Filter{}, func(*eventlog.Event) error { return nil }); err != nil {
				return err
			}
			scanS = append(scanS, time.Since(s0).Seconds())
			tr.add(id, "eventlog.scan", s0, time.Since(s0), 0)
			tr.end(id, int64(i))
		} else {
			plainS = append(plainS, t4.Sub(t0).Seconds())
		}
		replayS = append(replayS, t1.Sub(t0).Seconds())
		recoverS = append(recoverS, t2.Sub(t1).Seconds())
		loadS = append(loadS, t3.Sub(t2).Seconds())
		restoreS = append(restoreS, t4.Sub(t3).Seconds())
		readyUS = append(readyUS, float64(t4.Sub(t1))/1e3)

		if i == 0 {
			r.check(rep.Healthy, "RecoverDir: %s", rep)
			r.check(rep.Events == dr.events, "RecoverDir counted %d events, the writer %d", rep.Events, dr.events)
			r.check(testutil.CollectorDigests(col) == dr.live, "replayed collector digests differ from the live run's")
			r.check(int(s.Day()) == int(cfg.Days)-checkpointEvery, "restored at day %d, want %d", s.Day(), int(cfg.Days)-checkpointEvery)
		}
		if time.Since(start) >= r.seconds && (!r.traced || i > 0) {
			break
		}
	}
	tailOf := func(v []float64) float64 { return stats.Quantile(v, recoverTailP) }
	r.set("ops_per_s", float64(dr.events)/best(windowed(replayS, recoverWindow, stats.Median), true))
	r.set("op_p50_us", best(windowed(readyUS, recoverWindow, stats.Median), true))
	r.set("op_tail_us", best(windowed(readyUS, recoverWindow, tailOf), true))
	r.logf("recover: %d cycles in windows of %d, %d beyond p%g in each; ready %.0f us (best decile of windows) and %.0f us (median cycle)",
		len(readyUS), recoverWindow, beyond(recoverWindow, recoverTailP), recoverTailP*100, best(windowed(readyUS, recoverWindow, stats.Median), true), stats.Median(readyUS))

	// One resume to the horizon, as `fraudsim -resume` does it: heal the
	// log, cut it back to the checkpoint's segment boundary, reopen it
	// there, and carry on. The result must be the uninterrupted run's.
	res, resumeDays, err := resume(r, root, cfg, dr, restored, ckpt)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if !r.traced {
		return nil
	}

	x0 := time.Now()
	for _, err := range []error{
		res.Collector.ExportActivity(io.Discard),
		res.Collector.ExportDetections(io.Discard),
		dataset.ExportCustomers(io.Discard, res.Platform.Accounts()),
	} {
		if err != nil {
			return fmt.Errorf("export: %w", err)
		}
	}
	exportS := time.Since(x0).Seconds()
	r.tr.add(root, "dataset.export", x0, time.Since(x0), 0)

	r.set("trace_overhead_share", stats.Median(tracedS)/stats.Median(plainS)-1)
	r.set("eventlog.events", float64(dr.events))
	r.set("eventlog.bytes", float64(dr.bytes))
	r.set("eventlog.scan_s", stats.Median(scanS))
	r.set("eventlog.replay_s", stats.Median(replayS))
	r.set("eventlog.recover_s", stats.Median(recoverS))
	r.set("dataset.replay_fold_s", stats.Median(replayS)-stats.Median(scanS))
	r.set("dataset.export_s", exportS)
	r.set("sim.lineage_load_s", stats.Median(loadS))
	r.set("sim.restore_s", stats.Median(restoreS))
	r.set("sim.resume_days", float64(resumeDays))
	r.set("sim.days", float64(cfg.Days))
	return nil
}

// resume continues s (restored from c) to the horizon against the log
// in dr, and checks the result against the uninterrupted run.
func resume(r *run, root int, cfg sim.Config, dr *durableRun, s *sim.Sim, c *sim.Checkpoint) (res *sim.Result, days int, err error) {
	id := r.tr.begin(root, "resume")
	if _, err := eventlog.RecoverDir(dr.logDir, true); err != nil {
		return nil, 0, err
	}
	if err := eventlog.TruncateToSegment(dr.logDir, c.Log.NextSegment); err != nil {
		return nil, 0, err
	}
	dw, err := eventlog.NewDirWriterAt(dr.logDir, c.Log.NextSegment)
	if err != nil {
		return nil, 0, err
	}
	dw.Sync = eventlog.SyncRotate
	s.SetEvents(dw)
	days = int(cfg.Days - s.Day())
	var sr simRun
	if err := sr.drive(r, s, cfg.Days, id, false, nil); err != nil {
		return nil, 0, err
	}
	res = s.Finish()
	if err := dw.Close(); err != nil {
		return nil, 0, err
	}
	r.tr.end(id, int64(days))
	r.check(dw.Err() == nil, "resumed DirWriter.Err: %v", dw.Err())
	r.check(c.Log.Events+dw.Events() == dr.events, "resumed log holds %d events, the uninterrupted one %d", c.Log.Events+dw.Events(), dr.events)
	fp := testutil.DigestResult(res).Fingerprint
	r.check(fp == dr.digest, "resumed digest %s differs from the uninterrupted run's %s", fp, dr.digest)
	return res, days, r.checkLog(cfg, dr.logDir, dr.live)
}
