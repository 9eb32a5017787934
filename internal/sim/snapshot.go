package sim

// Checkpoint support: State is the complete serializable state of a
// running simulation at a day boundary. The restore strategy is
// "reconstruct, then overwrite": Restore builds the object graph exactly
// the way New does (same construction order, same named RNG forks, same
// immutable tables — keyword universes, market weights, Zipf parameters),
// then overwrites every mutable piece: RNG stream positions, the platform
// (decoded from its checkpoint columns straight into a live platform,
// with posting-list tie order preserved — see platform.DecodeColumns),
// the collector aggregates, the detection pipeline's per-account
// records, the agent population, and the engine's own counters and
// cursors. A restored Sim continues the same deterministic trajectory as
// the original: the crash-chaos suite in this package proves
// digest-identity against uninterrupted runs.
//
// One Config field cannot travel through a snapshot: Events (an
// interface, nil'd before encoding so gob skips it). Callers reattach it
// with SetEvents, and set the worker count and progress callback, which
// are not Config, with SetWorkers and SetProgress.

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/agents"
	"repro/internal/dataset"
	"repro/internal/detection"
	"repro/internal/platform"
	"repro/internal/queries"
	"repro/internal/simclock"
	"repro/internal/stats"
)

// Counters are a run's accumulated totals: the Result embeds them and
// a checkpoint stores them.
type Counters struct {
	Registrations      int
	FraudRegistrations int
	Compromises        int
	Auctions           int64
	Impressions        int64
	Clicks             int64
	FraudClicks        int64
	Spend              float64
	FraudSpend         float64
}

// FraudProfileEntry is one remembered fraud profile, keyed by account.
type FraudProfileEntry struct {
	ID      platform.AccountID
	Profile agents.Profile
}

// PendingRereg is one day's scheduled actor returns, in scheduling order.
type PendingRereg struct {
	Day      simclock.Day
	Profiles []agents.Profile
}

// State is the full serializable state of a Sim at a day boundary. It
// stores each fact once: nothing the records or the day cursor imply.
// The phase is always the day's first, and the initial population is
// seeded exactly when Day > 0, so neither is a field; the shutdowns by
// stage and the first-detection index are recounted from the collector's
// detection records. The platform, p, is no gob field: it travels as
// columns after the gob. DecodeCheckpoint decodes it into p, Restore
// takes it, and Snapshot points p at the live one.
type State struct {
	Config Config
	Day    simclock.Day

	Counters Counters

	RootRNG  stats.RNGState
	ArrRNG   stats.RNGState
	ClickRNG stats.RNGState

	p         *platform.Platform
	Collector *dataset.CollectorState
	Pipeline  *detection.PipelineState
	Queries   queries.GeneratorState
	Factory   agents.FactoryState
	Runtime   agents.RuntimeState

	Live          []agents.AgentState
	FraudProfiles []FraudProfileEntry
	PendingReregs []PendingRereg
}

// Snapshot captures the simulation's full state. It must be called at a
// day boundary (Phase is PhaseArrivals) and panics elsewhere; the
// returned State shares memory with the live sim, its platform included:
// encode it before stepping further, and do not Restore it.
func (s *Sim) Snapshot() *State {
	if err := dayBoundary(s.phase); err != nil {
		panic(err)
	}
	st := new(State)
	s.stateInto(st)
	st.p = s.p
	return st
}

// stateInto writes Snapshot's state but the platform into st, reusing
// st's slices: a checkpoint save keeps one State between saves and writes
// the platform straight from the live tables instead.
func (s *Sim) stateInto(st *State) {
	cfg := s.cfg
	cfg.Events = nil
	collector, pipeline := st.Collector, st.Pipeline
	if collector == nil {
		collector, pipeline = new(dataset.CollectorState), new(detection.PipelineState)
	}
	s.col.StateInto(collector)
	s.pipeline.StateInto(pipeline)
	live := slices.Grow(st.Live[:0], len(s.live))[:len(s.live)]
	for i, a := range s.live {
		a.StateInto(&live[i])
	}
	*st = State{
		Config:        cfg,
		Day:           s.day,
		Counters:      s.res.Counters,
		RootRNG:       s.rng.State(),
		ArrRNG:        s.arrRNG.State(),
		ClickRNG:      s.clickRNG.State(),
		Collector:     collector,
		Pipeline:      pipeline,
		Queries:       s.qgen.State(),
		Factory:       s.factory.State(),
		Runtime:       s.runtime.State(),
		Live:          live,
		FraudProfiles: st.FraudProfiles[:0],
		PendingReregs: st.PendingReregs[:0],
	}
	for id, prof := range s.fraudProfiles {
		st.FraudProfiles = append(st.FraudProfiles, FraudProfileEntry{id, prof})
	}
	slices.SortFunc(st.FraudProfiles, func(a, b FraudProfileEntry) int { return cmp.Compare(a.ID, b.ID) })
	for day, profs := range s.pendingReregs {
		st.PendingReregs = append(st.PendingReregs, PendingRereg{day, profs})
	}
	slices.SortFunc(st.PendingReregs, func(a, b PendingRereg) int { return cmp.Compare(a.Day, b.Day) })
}

// dayBoundary refuses a checkpoint anywhere but between days: a Sim is
// saved (Snapshot, encodeCheckpoint) only before a day's arrivals phase,
// where no query draw is ahead of the day cursor (queryDraw in
// dayloop.go), so Restore resumes at that phase.
func dayBoundary(p Phase) error {
	if p != PhaseArrivals {
		return fmt.Errorf("sim: a checkpoint is taken only between days, not before the %s phase", p)
	}
	return nil
}

// Restore rebuilds a Sim from a State that DecodeCheckpoint decoded. It
// takes the State's platform, which DecodeCheckpoint has already checked,
// and leaves none behind, so a State restores once. Every other
// cross-reference is validated here, so hostile checkpoint bytes yield an
// error, never a panic. The event sink is not restored, and the worker
// count and progress callback are not stored; set them with SetEvents,
// SetWorkers and SetProgress before Run.
func Restore(st *State) (*Sim, error) {
	if st == nil {
		return nil, fmt.Errorf("sim: nil state")
	}
	cfg := st.Config
	if err := checkHorizon(cfg); err != nil {
		return nil, err
	}
	if st.Day < 0 || st.Day > cfg.Days {
		return nil, fmt.Errorf("sim: snapshot day %d outside horizon %d", st.Day, cfg.Days)
	}
	p := st.p
	if p == nil {
		return nil, fmt.Errorf("sim: state has no platform")
	}
	st.p = nil
	// The collector tracks only platform accounts. This bound comes before
	// SetState sizes its tables by NumAccounts.
	if st.Collector != nil && st.Collector.NumAccounts > p.NumAccounts() {
		return nil, fmt.Errorf("sim: snapshot collector tracks %d accounts, platform has %d", st.Collector.NumAccounts, p.NumAccounts())
	}
	col := dataset.NewCollector(cfg.Windows, cfg.SampleWindow)
	if err := col.SetState(st.Collector); err != nil {
		return nil, err
	}
	s := newWired(cfg, p, col)
	if err := s.pipeline.SetState(st.Pipeline); err != nil {
		return nil, err
	}
	if err := s.qgen.SetState(st.Queries); err != nil {
		return nil, err
	}
	s.factory.SetState(st.Factory)
	s.runtime.SetState(st.Runtime)
	s.rng.SetState(st.RootRNG)
	s.arrRNG.SetState(st.ArrRNG)
	s.clickRNG.SetState(st.ClickRNG)

	s.live = make([]*agents.Agent, len(st.Live))
	for i, as := range st.Live {
		if int(as.Account) < 0 || int(as.Account) >= p.NumAccounts() {
			return nil, fmt.Errorf("sim: snapshot agent %d references unknown account %d", i, as.Account)
		}
		s.live[i] = agents.RestoreAgent(as)
	}
	for _, e := range st.FraudProfiles {
		s.fraudProfiles[e.ID] = e.Profile
	}
	for _, e := range st.PendingReregs {
		s.pendingReregs[e.Day] = e.Profiles
	}

	s.res.Counters = st.Counters
	s.day = st.Day
	return s, nil
}
