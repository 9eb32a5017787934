// Command fraudsim runs the search-advertiser-fraud ecosystem simulation
// and prints a run summary: scale of registrations and fraud, serving
// volume, revenue and losses, and detection-stage counts.
//
// Usage:
//
//	fraudsim [-scale small|medium|full] [-seed N] [-days N]
//	         [-queries N] [-regs F] [-legit N] [-workers N] [-v] [-export DIR]
//	         [-eventlog DIR] [-sync none|rotate|interval]
//	         [-checkpoint PATH] [-checkpoint-every N]
//	         [-resume PATH]
//	         [-cpuprofile PATH] [-memprofile PATH]
//
// -workers parallelizes query serving and the apply of the agents'
// posting-list edits across N goroutines and selects nothing else; 0
// (the default) uses every available CPU. A negative -workers or shape
// size is refused rather than read as its default, and so is a
// -checkpoint-retain below one. The agents' decisions and the nightly
// detection sweep run on one goroutine, with each day's query stream
// drawn beside the agents phase at any worker count. Results are
// byte-identical across worker counts, so the flag is a pure throughput
// knob.
//
// With -checkpoint-every N the simulator writes a crash-safe snapshot to
// the -checkpoint file every N simulated days (aligned with an event-log
// segment rotation when -eventlog is on), keeping the last
// -checkpoint-retain snapshots as a fallback lineage (PATH, PATH.1,
// PATH.2, ...). Either flag without the other is refused, except that a
// resumed run checkpoints into its -resume lineage. A killed run
// restarts with -resume PATH: the newest valid checkpoint in the lineage
// is restored — a checkpoint that went bad on disk is quarantined as
// PATH.corrupt (evidence, never deleted) and the next-older snapshot is
// used, costing only re-simulated days — then the event log is recovered
// and truncated to that checkpoint's segment boundary and the run
// continues on the exact deterministic trajectory of an uninterrupted
// run. The shape flags (-scale through -legit) come from the checkpoint
// and cannot be overridden on resume; -workers and -checkpoint-retain
// CAN be — neither affects the trajectory. A checkpoint does not store
// the worker count (its bytes are the same at any), so a resume without
// -workers uses every available CPU, on the same bytes.
//
// -cpuprofile and -memprofile write pprof profiles of the run (CPU over
// the whole run, a resume's restore included; heap at exit, after a
// final GC) for `go tool pprof`.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"repro/internal/dataset"
	"repro/internal/eventlog"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the testable entry point: parse args, simulate, print, export.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fraudsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	shape := sim.DefaultShape()
	shape.Bind(fs)
	workers := fs.Int("workers", 0, "worker goroutines for serving and for applying the agents' index edits (0 = all CPUs; any value gives identical results)")
	verbose := fs.Bool("v", false, "print progress every 30 simulated days")
	export := fs.String("export", "", "directory to write the three datasets as JSON lines")
	evDir := fs.String("eventlog", "", "directory to write the run's append-only event log (inspect with logtool)")
	syncMode := fs.String("sync", "rotate", "event log fsync policy: none, rotate, or interval")
	ckptPath := fs.String("checkpoint", "", "checkpoint file to write (with -checkpoint-every)")
	ckptEvery := fs.Int("checkpoint-every", 0, "write a checkpoint every N simulated days (0 = never)")
	ckptRetain := fs.Int("checkpoint-retain", sim.DefaultRetain, "keep the last K checkpoints as a corruption-fallback lineage")
	resume := fs.String("resume", "", "resume a killed run from this checkpoint file (or its lineage)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	policy, err := eventlog.ParseSyncPolicy(*syncMode)
	if err != nil {
		return fmt.Errorf("fraudsim: %w", err)
	}
	// Zero means a default for -workers; a negative value would silently
	// mean the same, so it is refused. A lineage keeps at least the
	// checkpoint just written, so -checkpoint-retain must be positive.
	switch {
	case *workers < 0:
		return fmt.Errorf("fraudsim: -workers %d is negative", *workers)
	case *ckptRetain <= 0:
		return fmt.Errorf("fraudsim: -checkpoint-retain %d is not positive", *ckptRetain)
	case *ckptEvery < 0:
		return fmt.Errorf("fraudsim: -checkpoint-every %d is negative", *ckptEvery)
	case *ckptEvery > 0 && *ckptPath == "" && *resume == "":
		return fmt.Errorf("fraudsim: -checkpoint-every needs -checkpoint PATH")
	case *ckptEvery == 0 && *ckptPath != "":
		return fmt.Errorf("fraudsim: -checkpoint needs -checkpoint-every N")
	}
	// -workers is not a shape flag: worker count does not affect the
	// trajectory, so a resumed run may use a different one (e.g. on a
	// differently-sized machine).
	if err := sim.RefuseOnResume(fs); err != nil {
		return fmt.Errorf("fraudsim: %w", err)
	}
	cfg, err := shape.Config() // a resumed run's comes from its checkpoint
	if err != nil {
		return fmt.Errorf("fraudsim: %w", err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("fraudsim: cpu profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	var d *sim.Durable
	if *resume == "" {
		d, err = sim.NewDurable(cfg, *evDir)
	} else {
		// ResumeRun walks the checkpoint lineage newest→oldest,
		// quarantining damaged snapshots. An all-corrupt lineage is a
		// hard error: the operator named this run; starting over would
		// discard it.
		d, err = sim.ResumeRun(sim.Lineage{Path: *resume, Retain: *ckptRetain}, *evDir, stderr)
	}
	if err != nil {
		return fmt.Errorf("fraudsim: %w", err)
	}
	if d.From != "" {
		fmt.Fprintf(stdout, "resumed from %s at day %d\n", d.From, d.Sim.Day())
	}
	if d.Log != nil {
		d.Log.Sync = policy
	}
	d.Sim.SetWorkers(*workers)
	if *verbose {
		d.Sim.SetProgress(func(line string) { fmt.Fprintln(stderr, line) })
	}

	// Without -checkpoint, a resumed run checkpoints into its own lineage.
	res, err := d.RunDays(sim.Lineage{Path: cmp.Or(*ckptPath, *resume), Retain: *ckptRetain}, *ckptEvery, nil)
	if err != nil {
		return fmt.Errorf("fraudsim: %w", err)
	}
	printSummary(stdout, res)
	if d.Log != nil {
		bytes, err := logBytes(*evDir)
		if err != nil {
			return fmt.Errorf("fraudsim: event log: %w", err)
		}
		fmt.Fprintf(stdout, "event log written to %s (%d events, %d bytes)\n", *evDir, d.Events(), bytes)
	}

	if *export != "" {
		if err := exportDatasets(*export, res); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "datasets written to %s/{customers,activity,detections}.jsonl\n", *export)
	}

	if *memProfile != "" {
		runtime.GC() // report live heap, not transient garbage
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("fraudsim: heap profile: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// logBytes sums the sealed segments of the closed log in dir: the whole
// log, earlier processes' share of a resumed run included.
func logBytes(dir string) (n uint64, err error) {
	m, err := eventlog.ReadManifest(dir)
	if m != nil {
		for _, seg := range m.Segments {
			n += seg.Bytes
		}
	}
	return n, err
}

// exportDatasets writes the §3.1 data sources as JSON-lines files.
func exportDatasets(dir string, res *sim.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write("customers.jsonl", func(f io.Writer) error {
		return dataset.ExportCustomers(f, res.Platform.Accounts())
	}); err != nil {
		return err
	}
	if err := write("activity.jsonl", res.Collector.ExportActivity); err != nil {
		return err
	}
	return write("detections.jsonl", res.Collector.ExportDetections)
}

func printSummary(w io.Writer, res *sim.Result) {
	fmt.Fprintf(w, "simulated %d days in %s\n", res.Config.Days, res.Elapsed.Round(1e7))
	fmt.Fprintf(w, "registrations        %10d (fraud: %d, %.1f%%)\n",
		res.Registrations, res.FraudRegistrations,
		100*float64(res.FraudRegistrations)/float64(max(res.Registrations, 1)))
	fmt.Fprintf(w, "auctions held        %10d\n", res.Auctions)
	fmt.Fprintf(w, "impressions served   %10d\n", res.Impressions)
	fmt.Fprintf(w, "clicks billed        %10d (fraud: %d, %.2f%%)\n",
		res.Clicks, res.FraudClicks, 100*float64(res.FraudClicks)/float64(max(res.Clicks, 1)))
	fmt.Fprintf(w, "revenue (bid units)  %10.0f (fraud spend: %.0f)\n", res.Spend, res.FraudSpend)
	fmt.Fprintf(w, "revenue lost         %10.0f (uncollectable, stolen instruments)\n", res.Platform.Ledger().TotalLost())
	fmt.Fprintln(w, "shutdowns by stage:")
	for _, st := range []dataset.DetectionStage{
		dataset.StageScreening, dataset.StagePayment, dataset.StageRateAnomaly,
		dataset.StageBlacklist, dataset.StageComplaint, dataset.StagePolicy,
		dataset.StageManualReview,
	} {
		if n := res.ShutdownsByStage[st]; n > 0 {
			fmt.Fprintf(w, "  %-15s %8d\n", st, n)
		}
	}
}
