// Command bench is the repository's one benchmark: the three things a
// user runs — a cmd/experiments reproduction, a fraudsim run with event
// log and checkpoints on, and /search through router → adserver — each
// measured end to end and, in a separate traced run, layer by layer.
// Every layer is measured from outside, by timing calls into public
// functions; see README.md for the metric and workload tables.
//
// Usage (from this directory; the module replaces repro => ../):
//
//	go run . [--workload a,b] [--seed N] [--seconds S] [--trace 0|1]
//	         [--out DIR] [--selfcheck]
//
// With one --workload the run happens in this process and the last line
// of standard output is the result as one JSON object. With several, or
// none (= all), each workload runs in a fresh child process of the same
// binary — so heap, GC state and peak RSS are per workload — and a
// table of every metric is printed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// metric is one reported value, as the benchmark contract spells it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one workload run in this process.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration // how long the measured part lasts
	traced   bool
	tiny     bool   // smoke-test scale, set by bench_test.go only: a few days, a few hundred requests
	out      string // trace file and scratch live here
	log      io.Writer

	tr *tracer // nil unless traced

	attempted, failed int64
	vals              map[string]float64
}

// check counts one correctness check (or one request) and reports a
// failed one.
func (r *run) check(ok bool, format string, args ...interface{}) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(r.log, "FAIL %s: %s\n", r.workload, fmt.Sprintf(format, args...))
	}
}

// count adds attempts whose failures were tallied by the caller.
func (r *run) count(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

func (r *run) set(name string, v float64) { r.vals[name] = v }

func (r *run) logf(format string, args ...interface{}) {
	fmt.Fprintf(r.log, format+"\n", args...)
}

// setupReps is how many times a workload's set-up is built in one run;
// setup_s is the median, so one slow start does not decide it.
const setupReps = 3

// setup times build setupReps times and records the median as setup_s.
// release, if not nil, frees what a build made before the next one
// starts; neither it nor the collection after it is on set-up's time.
// What the last build made is the caller's.
func (r *run) setup(build func() error, release func()) error {
	reps := setupReps
	if r.tiny {
		reps = 1
	}
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 && release != nil {
			release()
		}
		// What the previous build left behind does not stack up in
		// peak_rss_mb either.
		runtime.GC()
		id := r.tr.begin(0, "setup")
		t0 := time.Now()
		if err := build(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		r.tr.end(id, int64(i))
	}
	r.set("setup_s", stats.Median(secs))
	return nil
}

// result assembles the contract's result object: every end-to-end
// metric of an untraced run, every per-layer metric of a traced one.
func (r *run) result() result {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: r.vals[d.name], Unit: d.unit}
	}
	return res
}

// peakRSSMB reads this process's high-water resident set from
// /proc/self/status (VmHWM, kB).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

type options struct {
	workloads []string
	seed      uint64
	seconds   float64
	trace     bool
	tiny      bool // not a flag: bench_test.go sets it
	out       string
	selfcheck bool
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "comma-separated workloads (default: all)")
	seed := fs.Uint64("seed", 42, "seeds every generated input")
	seconds := fs.Float64("seconds", 15, "how long each workload measures")
	// An int, not a bool: the driver passes "--trace 0" / "--trace 1"
	// as two arguments, which the flag package's bool syntax rejects.
	trace := fs.Int("trace", 0, "1 = the traced run: per-layer metrics, spans written to --out")
	out := fs.String("out", "", "directory for trace files and scratch (default: a fresh directory under ./out, removed on success)")
	selfcheck := fs.Bool("selfcheck", false, "two sets of three runs; fail if an end-to-end median moves by more than its bound")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("bench: unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 {
		return options{}, fmt.Errorf("bench: --seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("bench: --trace takes 0 or 1")
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, selfcheck: *selfcheck}
	if *wl == "" {
		for _, w := range workloads {
			o.workloads = append(o.workloads, w.name)
		}
	} else {
		for _, name := range strings.Split(*wl, ",") {
			if _, ok := workloadByName(name); !ok {
				return options{}, fmt.Errorf("bench: unknown workload %q", name)
			}
			o.workloads = append(o.workloads, name)
		}
	}
	return o, nil
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	switch {
	case o.selfcheck:
		err = selfcheck(o, os.Stdout)
	case len(o.workloads) == 1:
		err = runOne(o, os.Stdout, os.Stderr)
	default:
		err = runAll(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func header(w io.Writer, o options) {
	fmt.Fprintf(w, "# bench seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d %s\n",
		o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// runOne runs one workload in this process and prints its result line.
// A run whose checks fail still prints the line — with correct=false —
// and then exits nonzero.
func runOne(o options, stdout, stderr io.Writer) error {
	header(stdout, o)
	res, err := execute(o, o.workloads[0], stderr)
	if err != nil {
		return err
	}
	printMetrics(stdout, o.workloads[0], o.trace, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("bench: %s: %d of %d checks failed", o.workloads[0], res.Failed, res.Attempted)
	}
	return nil
}

// execute runs the named workload and returns its result.
func execute(o options, name string, log io.Writer) (result, error) {
	w, _ := workloadByName(name)
	r := &run{
		workload: name,
		seed:     o.seed,
		seconds:  time.Duration(o.seconds * float64(time.Second)),
		traced:   o.trace,
		tiny:     o.tiny,
		out:      o.out,
		log:      log,
		vals:     map[string]float64{},
	}
	// The default scratch is a fresh directory, but under the working
	// directory rather than the system's temp dir: a benchmark run may
	// write only inside its checkout.
	ownOut := r.out == ""
	if ownOut {
		if err := os.MkdirAll("out", 0o755); err != nil {
			return result{}, err
		}
		dir, err := os.MkdirTemp("out", name+"-")
		if err != nil {
			return result{}, err
		}
		r.out = dir
	} else if err := os.MkdirAll(r.out, 0o755); err != nil {
		return result{}, err
	}
	if r.traced {
		r.tr = newTracer(name)
	}
	root := r.tr.begin(0, "run")
	if err := w.run(r, root); err != nil {
		return result{}, fmt.Errorf("bench: %s: %w", name, err)
	}
	r.tr.end(root, 0)
	r.set("peak_rss_mb", peakRSSMB())
	if r.traced {
		path := filepath.Join(r.out, name+".spans.jsonl")
		if err := r.tr.write(path); err != nil {
			return result{}, err
		}
		printSpans(log, r.tr.spans)
		if !ownOut {
			r.logf("spans written to %s", path)
		}
	}
	res := r.result()
	if ownOut && res.Correct {
		if err := os.RemoveAll(r.out); err != nil {
			return result{}, err
		}
		os.Remove("out") // only when no other run's scratch is in it
	}
	return res, nil
}

// printMetrics prints every metric by name with its unit; per-layer
// metrics also name their layer and the end-to-end metric they should
// move.
func printMetrics(w io.Writer, workload string, traced bool, res result) {
	wl, _ := workloadByName(workload)
	fmt.Fprintf(w, "# %s: operation = %s\n", workload, wl.op)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-14s %-30s %16.4f %-6s", workload, d.name, res.Metrics[d.name].Value, d.unit)
		if traced {
			fmt.Fprintf(w, " %-9s -> %s", d.layer, d.moves)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-14s %-30s %16d of %d attempted\n", workload, "failed", res.Failed, res.Attempted)
}

func printSpans(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-24s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, nt := range totalsByName(spans) {
		fmt.Fprintf(w, "%-24s %8d %12.2f %12.2f\n", nt.name, nt.count,
			float64(nt.total)/1e6, float64(nt.self)/1e6)
	}
}

// child runs one workload in a fresh process of this binary and parses
// the result line it prints last.
func child(o options, name string, seed uint64) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0"}
	if o.trace {
		args[len(args)-1] = "1"
	}
	if o.out != "" {
		args = append(args, "--out", o.out)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	outBytes, runErr := cmd.Output() // waits for the child to end
	lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("bench: %s: %w", name, runErr)
		}
		return result{}, fmt.Errorf("bench: %s: no result line: %w", name, err)
	}
	return res, nil
}

// runAll runs the selected workloads one child process each and prints
// every metric by name with its unit.
func runAll(o options, stdout io.Writer) error {
	header(stdout, o)
	bad := 0
	for _, name := range o.workloads {
		res, err := child(o, name, o.seed)
		if err != nil {
			return err
		}
		printMetrics(stdout, name, o.trace, res)
		if !res.Correct {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("bench: %d workload(s) failed their checks", bad)
	}
	return nil
}
