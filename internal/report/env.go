// Package report is the experiment harness: one registered experiment per
// table and figure in the paper's evaluation, each producing structured
// headline metrics (consumed by tests and EXPERIMENTS.md) and rendered
// text rows (the same rows/series the paper reports).
package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Env is the shared context experiments run against: one completed
// simulation, its study wrapper, and the §3.3 subset battery for each
// named measurement window.
type Env struct {
	Res   *sim.Result
	Study *core.Study

	// Battery[i] is the subset battery for the i-th named window. The
	// primary behavioral window (Y1Q2) is Battery[0].
	Battery []*core.Subsets

	// SubsetSize is the per-subset target size used when building the
	// battery.
	SubsetSize int
}

// NewEnv wraps a simulation result, building subsets deterministically
// from the given seed. subsetSize caps each subset (the paper uses
// ~10,000; scale to the simulated population).
func NewEnv(res *sim.Result, subsetSize int, seed uint64) *Env {
	study := core.NewStudy(res.Platform, res.Collector, res.Config.Days)
	rng := stats.NewRNG(seed)
	env := &Env{Res: res, Study: study, SubsetSize: subsetSize}
	for i, w := range res.Collector.Windows() {
		env.Battery = append(env.Battery, study.BuildSubsets(w, i, subsetSize, rng.ForkNamed(w.Name)))
	}
	return env
}

// Primary returns the Y1Q2 battery (index 0), the window most analyses
// use.
func (e *Env) Primary() *core.Subsets { return e.Battery[0] }

// Output is one experiment's result.
type Output struct {
	ID    string
	Title string
	// Paper summarizes what the original reports for this experiment.
	Paper string
	// Lines are the rendered rows/series.
	Lines []string
	// Metrics are headline scalars keyed by stable names; tests assert
	// the paper's qualitative shapes against them and EXPERIMENTS.md
	// tabulates them.
	Metrics map[string]float64
	// SVGs are rendered figure documents keyed by file name (written out
	// by `experiments -svg DIR`).
	SVGs map[string]string
}

// Add appends a formatted line.
func (o *Output) Add(format string, args ...interface{}) {
	o.Lines = append(o.Lines, fmt.Sprintf(format, args...))
}

// Metric records a headline scalar.
func (o *Output) Metric(name string, v float64) {
	if o.Metrics == nil {
		o.Metrics = map[string]float64{}
	}
	o.Metrics[name] = v
}

// SVG attaches a rendered figure document.
func (o *Output) SVG(name, content string) {
	if o.SVGs == nil {
		o.SVGs = map[string]string{}
	}
	o.SVGs[name] = content
}

// String renders the full output block.
func (o *Output) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", o.ID, o.Title)
	if o.Paper != "" {
		fmt.Fprintf(&b, "paper: %s\n", o.Paper)
	}
	for _, l := range o.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	if len(o.Metrics) > 0 {
		keys := make([]string, 0, len(o.Metrics))
		for k := range o.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("metrics:\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-42s %.4g\n", k, o.Metrics[k])
		}
	}
	return b.String()
}

// Experiment is one registered table/figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Env) *Output
}

var registry []Experiment

func register(id, title string, run func(*Env) *Output) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns every registered experiment in paper order.
func All() []Experiment { return registry }

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
