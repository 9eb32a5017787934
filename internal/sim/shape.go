package sim

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/simclock"
)

// Shape is what fixes a run's trajectory on a command line: a scale
// preset plus overrides of its size, as one set of flags (Bind).
type Shape struct {
	Scale   string
	Seed    uint64
	Days    int     // 0 = scale default
	Queries int     // 0 = scale default
	Regs    float64 // 0 = scale default
	Legit   int     // 0 = scale default
}

// DefaultShape is the shape of a run given no shape flags.
func DefaultShape() Shape { return Shape{Scale: "medium", Seed: 42} }

// Bind defines the shape flags on fs, defaulting to sh's values.
func (sh *Shape) Bind(fs *flag.FlagSet) {
	fs.StringVar(&sh.Scale, "scale", sh.Scale, "simulation scale: small, medium, or full")
	fs.Uint64Var(&sh.Seed, "seed", sh.Seed, "simulation seed")
	fs.IntVar(&sh.Days, "days", sh.Days, "override simulated days (0 = scale default)")
	fs.IntVar(&sh.Queries, "queries", sh.Queries, "override queries per day (0 = scale default)")
	fs.Float64Var(&sh.Regs, "regs", sh.Regs, "override registrations per day (0 = scale default)")
	fs.IntVar(&sh.Legit, "legit", sh.Legit, "override initial legitimate advertisers (0 = scale default)")
}

// Config resolves the shape: the scale preset with the overrides applied.
// A zero override means the scale default, so a negative one (or a
// registration rate that is not a finite number) would silently mean the
// same: it is refused.
func (sh Shape) Config() (Config, error) {
	cfg, err := ScaleConfig(sh.Scale)
	if err != nil {
		return cfg, err
	}
	for _, o := range []struct {
		flag string
		v    int
	}{{"days", sh.Days}, {"queries", sh.Queries}, {"legit", sh.Legit}} {
		if o.v < 0 {
			return cfg, fmt.Errorf("sim: -%s %d is negative (0 means the scale default)", o.flag, o.v)
		}
	}
	if !(sh.Regs >= 0) || math.IsInf(sh.Regs, 1) {
		return cfg, fmt.Errorf("sim: -regs %v is not a finite non-negative rate (0 means the scale default)", sh.Regs)
	}
	cfg.Seed = sh.Seed
	if sh.Days > 0 {
		cfg.Days = simclock.Day(sh.Days)
	}
	if sh.Queries > 0 {
		cfg.QueriesPerDay = sh.Queries
	}
	if sh.Regs > 0 {
		cfg.RegistrationsPerDay = sh.Regs
	}
	if sh.Legit > 0 {
		cfg.InitialLegit = sh.Legit
	}
	return cfg, nil
}

// RefuseOnResume fails if fs has a non-empty -resume together with a
// shape flag or a flag named in also: a resumed run takes its shape from
// the checkpoint.
func RefuseOnResume(fs *flag.FlagSet, also ...string) error {
	var shape flag.FlagSet
	new(Shape).Bind(&shape)
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		if shape.Lookup(f.Name) != nil || slices.Contains(also, f.Name) {
			bad = append(bad, "-"+f.Name)
		}
	})
	if len(bad) == 0 || fs.Lookup("resume").Value.String() == "" {
		return nil
	}
	return fmt.Errorf("%s cannot be combined with -resume (run parameters come from the checkpoint)",
		strings.Join(bad, ", "))
}
