package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/auction"
	"repro/internal/clicks"
	"repro/internal/platform"
	"repro/internal/queries"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testutil"
)

// pins.json holds, per workload, the testutil.DigestResult fingerprint
// of the full-size simulation at seed 42. Other seeds and the tiny scale
// are printed, not compared.
//
//go:embed pins.json
var pinsJSON []byte

const pinnedSeed = 42

// checkDigest compares a full-size seed-42 digest with its pin.
func (r *run) checkDigest(fp string) {
	r.logf("%s: seed %d digest %s", r.workload, r.seed, fp)
	if r.seed != pinnedSeed || r.tiny {
		return
	}
	var pins map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		r.check(false, "pins.json: %v", err)
		return
	}
	r.check(pins[r.workload] == fp, "digest %s differs from pinned %s", fp, pins[r.workload])
}

// checkResult asserts the conservation laws on a finished run.
func (r *run) checkResult(res *sim.Result) {
	ledger := res.Platform.Ledger().TotalBilled()
	r.check(math.Abs(res.Spend-ledger) <= 1e-6*math.Max(1, math.Abs(ledger)),
		"spend %v != ledger total %v", res.Spend, ledger)
	r.check(res.Clicks <= res.Impressions, "clicks %d > impressions %d", res.Clicks, res.Impressions)
}

// warmDays is how far set-up steps a throwaway copy of the world, so
// heap growth, page faults and lazy initialisation are paid before the
// first measured job.
const warmDays = 40

// subsetSize is cmd/experiments' -subset default.
const subsetSize = 3000

// probeDays is the tail of the run the workers probe re-runs.
const probeDays = 10

// reproTrace is what one traced reproduction job measured per layer.
type reproTrace struct {
	sr                 simRun
	sim, finish        time.Duration
	env, exps, render  time.Duration
	slowest            time.Duration
	experiments, svgs  int
	auctions, accounts int64
	impressions        int64
	clicks             int64
}

func runRepro(r *run, root int, mk func(*run) sim.Config) error {
	cfg := mk(r)
	err := r.setup(func() error {
		s := sim.New(cfg)
		for i := 0; i < warmDays && s.Step(); i++ {
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}

	var (
		traces   []reproTrace
		last     *sim.Sim
		probeCkp = filepath.Join(r.out, "probe.ckpt")
		haveCkp  bool
	)
	err = r.batch(root, func(i, parent int, traced bool) (job, error) {
		var tr *tracer
		if traced {
			tr = r.tr
		}
		cfg := cfg
		cfg.Seed = worldSeed(r.seed, i)
		var rt reproTrace
		var probeCost time.Duration
		// The first traced job leaves a checkpoint probeDays before the
		// horizon for the workers probe; its cost is taken out of the
		// job's wall.
		var s *sim.Sim
		var hook func(day, parent int) error
		if traced && !haveCkp {
			hook = func(day, _ int) error {
				if day != int(cfg.Days)-probeDays {
					return nil
				}
				t0 := time.Now()
				err := s.WriteCheckpointFile(probeCkp, sim.LogPosition{})
				probeCost = time.Since(t0)
				haveCkp = err == nil
				return err
			}
		}

		t0 := time.Now()
		simID := tr.begin(parent, "sim")
		s = sim.New(cfg)
		last = s
		if err := rt.sr.drive(r, s, cfg.Days, simID, traced, hook); err != nil {
			return job{}, err
		}
		f0 := time.Now()
		res := s.Finish()
		rt.finish = time.Since(f0)
		tr.add(simID, "finish", f0, rt.finish, 0)
		tr.end(simID, int64(cfg.Days))
		rt.sim = time.Since(t0) - probeCost

		e0 := time.Now()
		env := report.NewEnv(res, subsetSize, cfg.Seed^0x5eed)
		rt.env = time.Since(e0)
		tr.add(parent, "report.env", e0, rt.env, 0)

		x0 := time.Now()
		var outs []*report.Output
		for _, e := range report.All() {
			p0 := time.Now()
			out := e.Run(env)
			d := time.Since(p0)
			if d > rt.slowest {
				rt.slowest = d
			}
			tr.add(parent, "report.exp/"+e.ID, p0, d, 0)
			outs = append(outs, out)
		}
		rt.exps = time.Since(x0)

		w0 := time.Now()
		svgs, err := render(filepath.Join(r.out, "report"), outs)
		if err != nil {
			return job{}, err
		}
		rt.render = time.Since(w0)
		tr.add(parent, "report.render", w0, rt.render, int64(svgs))
		wall := time.Since(t0) - probeCost

		// Checks, outside the timed part.
		r.checkResult(res)
		if i == 0 {
			r.checkDigest(testutil.DigestResult(res).Fingerprint)
		}
		r.check(len(outs) == len(report.All()), "%d outputs for %d experiments", len(outs), len(report.All()))
		// Every experiment must give an output. Whether it has rows is a
		// property of the world as much as of the program — a sparse world
		// can leave fig8 without a month of fraud spend above its floor, a
		// tiny run ends before the analysis window opens — so rows are
		// required on the pinned world only, where they are known to exist.
		pinned := i == 0 && r.seed == pinnedSeed && !r.tiny
		for k, out := range outs {
			r.check(out != nil && (!pinned || len(out.Lines) > 0), "experiment %s: empty output", report.All()[k].ID)
		}

		if traced {
			rt.experiments, rt.svgs = len(outs), svgs
			rt.auctions, rt.impressions, rt.clicks = res.Auctions, res.Impressions, res.Clicks
			rt.accounts = int64(res.Platform.NumAccounts())
			traces = append(traces, rt)
		}
		return job{wall: wall, days: int(cfg.Days), dayUS: rt.sr.dayUS}, nil
	})
	if err != nil {
		return err
	}
	if !r.traced {
		return nil
	}

	reportReproTrace(r, cfg, traces)
	if err := workersProbe(r, root, probeCkp, cfg); err != nil {
		return err
	}
	if r.workload == "repro_queries" {
		servingProbe(r, root, last, cfg)
	}
	return nil
}

// render writes every output's text block and SVG documents under dir,
// as cmd/experiments prints the one and -svg writes the other.
func render(dir string, outs []*report.Output) (svgs int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	for _, out := range outs {
		if err := os.WriteFile(filepath.Join(dir, out.ID+".txt"), []byte(out.String()), 0o644); err != nil {
			return svgs, err
		}
		for name, content := range out.SVGs {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
				return svgs, err
			}
			svgs++
		}
	}
	return svgs, nil
}

// reportReproTrace sets the sim.* and report.* metrics: times are means
// over the traced jobs, counts are those of the first traced job's world
// (each job simulates its own world; the counts repeat at the same
// --seed).
func reportReproTrace(r *run, cfg sim.Config, traces []reproTrace) {
	n := float64(len(traces))
	sec := func(pick func(reproTrace) time.Duration) float64 {
		sum := 0.0
		for _, t := range traces {
			sum += pick(t).Seconds()
		}
		return sum / n
	}
	setSimPhases(r, func(pick func(simRun) time.Duration) float64 {
		return sec(func(t reproTrace) time.Duration { return pick(t.sr) })
	})
	serving := sec(func(t reproTrace) time.Duration { return t.sr.phase[sim.PhaseServing] })
	simWall := sec(func(t reproTrace) time.Duration { return t.sim })
	phases := sec(func(t reproTrace) time.Duration { return t.sr.phaseSum() + t.finish })
	t0 := traces[0]
	var auctions int64
	for _, t := range traces {
		auctions += t.auctions
	}
	r.set("sim.finish_s", sec(func(t reproTrace) time.Duration { return t.finish }))
	r.set("sim.phase_sum_share", phases/simWall)
	r.set("sim.serving_ns_per_auction", ratio(serving*1e9*n, float64(auctions)))
	r.set("sim.allocs_per_day", float64(t0.sr.mallocs)/float64(cfg.Days))
	r.set("sim.days", float64(cfg.Days))
	r.set("sim.accounts", float64(t0.accounts))
	r.set("sim.auctions", float64(t0.auctions))
	r.set("sim.impressions", float64(t0.impressions))
	r.set("sim.clicks", float64(t0.clicks))
	r.set("report.env_s", sec(func(t reproTrace) time.Duration { return t.env }))
	r.set("report.experiments_s", sec(func(t reproTrace) time.Duration { return t.exps }))
	r.set("report.experiments", float64(t0.experiments))
	r.set("report.slowest_ms", sec(func(t reproTrace) time.Duration { return t.slowest })*1e3)
	r.set("report.render_s", sec(func(t reproTrace) time.Duration { return t.render }))
	r.set("report.svgs", float64(t0.svgs))
}

// setSimPhases sets the five per-phase times from a mean-over-jobs
// accessor; repro and durable share it.
func setSimPhases(r *run, sec func(pick func(simRun) time.Duration) float64) {
	r.set("sim.day0_s", sec(func(s simRun) time.Duration { return s.day0 }))
	r.set("sim.arrivals_s", sec(func(s simRun) time.Duration { return s.phase[sim.PhaseArrivals] }))
	r.set("sim.agents_s", sec(func(s simRun) time.Duration { return s.phase[sim.PhaseAgents] }))
	r.set("sim.serving_s", sec(func(s simRun) time.Duration { return s.phase[sim.PhaseServing] }))
	r.set("sim.detection_s", sec(func(s simRun) time.Duration { return s.phase[sim.PhaseDetection] }))
}

// workersProbe re-runs the last probeDays from the checkpoint at
// Workers=1 and at Workers=GOMAXPROCS and reports the serving and agents
// phases' cost per day at each: the Amdahl numbers. The plan/apply
// split inside agents is not reachable from outside (Sim exposes no
// Runtime), so the agents phase is one number.
func workersProbe(r *run, root int, ckp string, cfg sim.Config) error {
	for _, w := range []struct {
		workers int
		suffix  string
	}{{1, "w1"}, {runtime.GOMAXPROCS(0), "wN"}} {
		c, err := sim.ReadCheckpoint(ckp)
		if err != nil {
			return fmt.Errorf("workers probe: %w", err)
		}
		s, err := sim.Restore(c.State)
		if err != nil {
			return fmt.Errorf("workers probe: %w", err)
		}
		s.SetWorkers(w.workers)
		days := float64(cfg.Days - s.Day())
		id := r.tr.begin(root, "probe/workers="+w.suffix)
		var sr simRun
		if err := sr.drive(r, s, cfg.Days, id, true, nil); err != nil {
			return err
		}
		r.tr.end(id, int64(days))
		r.set("sim.serving_"+w.suffix+"_ms_per_day", sr.phase[sim.PhaseServing].Seconds()*1e3/days)
		r.set("sim.agents_"+w.suffix+"_ms_per_day", sr.phase[sim.PhaseAgents].Seconds()*1e3/days)
	}
	return nil
}

// servingProbe times the serving phase's sub-steps one at a time on the
// end-of-run world, over one day's worth of queries, through the same
// public calls the sim's serving engine makes. The sim's own page cache
// is not reachable from outside; distinct_key_share is the share of
// queries that would miss it.
func servingProbe(r *run, root int, s *sim.Sim, cfg sim.Config) {
	id := r.tr.begin(root, "probe/serving")
	defer func() { r.tr.end(id, int64(cfg.QueriesPerDay)) }()
	gen, p := s.Queries(), s.Platform()
	n := cfg.QueriesPerDay

	qs := make([]queries.Query, n)
	t0 := time.Now()
	for i := range qs {
		qs[i] = gen.Next()
	}
	nextNS := float64(time.Since(t0)) / float64(n)

	type key struct {
		vi, kw, cl int
		form       platform.QueryForm
		country    string
	}
	distinct := map[key]struct{}{}
	for _, q := range qs {
		distinct[key{q.VerticalIdx, q.KeywordID, q.Cluster, q.Form, string(q.Country)}] = struct{}{}
	}

	const liveCalls = 1000
	var live []bool
	t0 = time.Now()
	for i := 0; i < liveCalls; i++ {
		live = p.LiveSet()
	}
	liveNS := float64(time.Since(t0)) / liveCalls

	var (
		elig, auct, click time.Duration
		refs, auctions    int
		buf               []platform.BidRef
		scr               auction.Scratch
		clickBuf          []int
		model             = clicks.DefaultModel()
		rng               = stats.NewRNG(r.seed ^ 0xc11c)
	)
	for i := range qs {
		q := &qs[i]
		t0 := time.Now()
		buf = p.Index().Sublists(q.Vertical, q.Country).EligibleAppendLive(buf[:0], q.KeywordID, q.Cluster, q.Form, live)
		t1 := time.Now()
		elig += t1.Sub(t0)
		refs += len(buf)
		if len(buf) == 0 {
			continue
		}
		res := auction.RunInto(cfg.Auction, buf, q.Form, &scr)
		t2 := time.Now()
		auct += t2.Sub(t1)
		clickBuf = model.SimulateInto(rng, res.Placements, clickBuf[:0])
		click += time.Since(t2)
		auctions++
	}
	eligNS := float64(elig) / float64(n)
	auctNS := ratio(float64(auct), float64(auctions))
	clickNS := ratio(float64(click), float64(auctions))
	r.set("queries.next_ns", nextNS)
	r.set("queries.distinct_key_share", float64(len(distinct))/float64(n))
	r.set("platform.liveset_ns", liveNS)
	r.set("platform.eligible_ns", eligNS)
	r.set("platform.eligible_refs", float64(refs)/float64(n))
	r.set("auction.run_ns", auctNS)
	r.set("clicks.simulate_ns", clickNS)
	r.set("serve.probe_sum_ns", nextNS+eligNS+auctNS+clickNS)
}
