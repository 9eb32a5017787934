package sim

// The day loop, decomposed into phases (DESIGN.md §8). Each simulated
// day runs four phases in a fixed order:
//
//	arrivals  — policy flags, registrations, re-registrations, account
//	            takeovers (sequential: one arrival RNG stream)
//	agents    — campaign management: account closes, then one step per
//	            live agent, in live-list order
//	serving   — queries, auctions, clicks, billing (serve.go)
//	detection — the nightly sweep, in account-ID order, plus actor
//	            re-registration reactions
//
// Serving fans out across SetWorkers goroutines (its freeze-then-merge
// contract is in serve.go); the other three phases run on the simulation
// goroutine, and the agents phase's posting-list edits are staged and
// applied per (vertical, country) group over the same count (flushIndex
// below). Every agent and every monitored account still draws from a
// private RNG stream and reads only its own account, so the canonical
// orders above fix the shared bytes (index insertion, collector folds,
// the event log) and nothing else. Every seeded byte (digests,
// checkpoints, event logs) is identical at any worker count, proven
// against the recorded one-worker runs in record_test.go.
//
// StepPhase exposes the phase boundaries to callers, which may change the
// worker count at any of them. A checkpoint is taken and resumed only at
// a day boundary, before arrivals (dayBoundary in snapshot.go).
//
// The agents phase also draws the day's query stream ahead of serving, on
// one goroutine of its own (queryDraw below), at every worker count.

import (
	"sync"
	"time"

	"repro/internal/agents"
	"repro/internal/queries"
	"repro/internal/simclock"
	"repro/internal/stats"
)

// Phase identifies the sub-phase of the day loop a Sim will run next.
type Phase uint8

const (
	PhaseArrivals Phase = iota
	PhaseAgents
	PhaseServing
	PhaseDetection
)

// String names a phase for diagnostics.
func (p Phase) String() string {
	switch p {
	case PhaseArrivals:
		return "arrivals"
	case PhaseAgents:
		return "agents"
	case PhaseServing:
		return "serving"
	case PhaseDetection:
		return "detection"
	}
	return "invalid"
}

// PhaseTimes accumulates wall time per day-loop phase; attach with
// SetPhaseTimes to profile where a day's cost goes (BenchmarkStepDay
// does; bench/ times around StepPhase instead). QueryDraw and DrawWait split out the draw-ahead
// inside the agents phase: QueryDraw is time spent on the draw goroutine
// (concurrent with the agents' steps, so not part of any phase's
// wall), DrawWait the part of Agents spent blocked on it. IndexApply is
// the part of Agents spent applying the phase's staged posting-list
// edits: the closing Flush and every batch a full log applied before it.
type PhaseTimes struct {
	Arrivals  time.Duration
	Agents    time.Duration
	Serving   time.Duration
	Detection time.Duration

	QueryDraw  time.Duration
	DrawWait   time.Duration
	IndexApply time.Duration
}

// SetPhaseTimes attaches (or with nil detaches) a per-phase timing
// accumulator. Timing reads the wall clock only; it never perturbs a
// seeded run.
func (s *Sim) SetPhaseTimes(t *PhaseTimes) { s.timing = t }

// Phase returns the next phase StepPhase will run.
func (s *Sim) Phase() Phase { return s.phase }

// StepPhase advances the simulation by one phase of the current day. The
// first call on a fresh Sim seeds the initial population. It returns
// false — without running anything — once the horizon is reached.
// SetWorkers may be called between any two StepPhase calls; a
// checkpoint only between days, when Phase is PhaseArrivals.
func (s *Sim) StepPhase() bool {
	if s.day >= s.cfg.Days {
		return false
	}
	if s.started.IsZero() {
		s.started = time.Now()
	}
	if s.day == 0 && s.phase == PhaseArrivals {
		s.seedInitialPopulation()
	}
	day := s.day
	var t0 time.Time
	if s.timing != nil {
		t0 = time.Now()
	}
	switch s.phase {
	case PhaseArrivals:
		s.arrivalsPhase(day)
		if s.timing != nil {
			s.timing.Arrivals += time.Since(t0)
		}
		s.phase = PhaseAgents
	case PhaseAgents:
		s.agentPhase(day)
		if s.timing != nil {
			s.timing.Agents += time.Since(t0)
		}
		s.phase = PhaseServing
	case PhaseServing:
		s.serveQueries(day)
		if s.timing != nil {
			s.timing.Serving += time.Since(t0)
		}
		s.phase = PhaseDetection
	case PhaseDetection:
		s.detectionPhase(day)
		if s.timing != nil {
			s.timing.Detection += time.Since(t0)
		}
		s.phase = PhaseArrivals
		s.day++
	}
	return s.day < s.cfg.Days
}

// arrivalsPhase runs policy events, fresh registrations, scheduled
// re-registrations, and account takeovers. It is sequential: every
// decision draws from the single arrival stream.
func (s *Sim) arrivalsPhase(day simclock.Day) {
	// Policy events visible to arriving fraudsters.
	if day == s.cfg.Detection.TechSupportBanDay {
		s.factory.SetTechSupportBanned(true)
	}

	// Arrivals: fresh registrations plus returning (re-registering)
	// fraudulent actors.
	n := stats.Poisson(s.arrRNG, s.cfg.RegistrationsPerDay)
	share := s.fraudShare(day)
	for i := 0; i < n; i++ {
		var prof agents.Profile
		if s.arrRNG.Bool(share) {
			prof = s.factory.NewFraud()
		} else {
			prof = s.factory.NewLegit()
		}
		s.register(prof, simclock.StampAt(day, s.arrRNG.Float64()))
	}
	if returning := s.pendingReregs[day]; len(returning) > 0 {
		delete(s.pendingReregs, day)
		for _, prof := range returning {
			s.register(prof, simclock.StampAt(day, s.arrRNG.Float64()))
		}
	}

	// Account takeovers of mature legitimate advertisers (§2).
	s.compromiseAccounts(day)
}

// queryDraw is the day's query stream, drawn ahead of the serving phase.
// The stream depends on nothing but the generator's own RNGs, and the
// agents phase reads only the generator's immutable keyword universes
// (Runtime.Step through Runtime.universe), so agentPhase draws the day's
// QueriesPerDay queries on a goroutine of its own while the agents step,
// and joins it before returning: no goroutine outlives a StepPhase call.
// Serving then serves the drawn queries. Between the two phases the
// generator is a day ahead of the day cursor, which no checkpoint sees: a
// Sim is saved and restored only between days (dayBoundary in
// snapshot.go), where no draw is outstanding.
type queryDraw struct {
	qs   []queries.Query // the day's queries; reused every day
	took time.Duration   // wall time of the last draw

	wg  sync.WaitGroup
	run func() // the goroutine's body, built once so a day allocates nothing
}

// drawQueries draws the day's query stream into the buffer the Sim keeps.
func (s *Sim) drawQueries() {
	d := &s.draw
	n := s.cfg.QueriesPerDay
	if cap(d.qs) < n {
		d.qs = make([]queries.Query, n)
	}
	d.qs = d.qs[:n]
	for i := range d.qs {
		d.qs[i] = s.qgen.Next()
	}
}

// startDraw starts the draw goroutine; joinDraw must follow before the
// phase returns.
func (s *Sim) startDraw() {
	d := &s.draw
	if d.run == nil {
		d.run = func() {
			defer d.wg.Done()
			t0 := time.Now()
			s.drawQueries()
			d.took = time.Since(t0)
		}
	}
	d.wg.Add(1)
	go d.run()
}

// joinDraw waits for the draw goroutine.
func (s *Sim) joinDraw() {
	d := &s.draw
	var t0 time.Time
	if s.timing != nil {
		t0 = time.Now()
	}
	d.wg.Wait()
	if s.timing != nil {
		s.timing.DrawWait += time.Since(t0)
		s.timing.QueryDraw += d.took
	}
}

// agentPhase runs one day of campaign management: it compacts dead agents
// out of the live list, closes accounts whose business has run its course
// (those draws come from the shared arrival stream, in live order), then
// steps the surviving agents in live order. The day's queries are drawn
// meanwhile (see queryDraw). The draw is for this day's serving phase,
// which StepPhase runs next, so none is ever started for a day past the
// horizon and the generator ends a run where its last serving phase
// leaves it. The phase's posting-list edits are staged and applied
// before it returns (see flushIndex).
func (s *Sim) agentPhase(day simclock.Day) {
	s.startDraw()
	defer s.joinDraw()
	s.p.Index().BeginStage(s.resolveWorkers())
	liveOut := s.live[:0]
	for _, a := range s.live {
		acct := s.p.MustAccount(a.Account)
		if !acct.Alive() {
			continue
		}
		if a.LifetimeDays > 0 && !acct.Fraud &&
			float64(day)-float64(acct.Created) > a.LifetimeDays {
			if err := s.p.Close(a.Account, simclock.StampAt(day, s.arrRNG.Float64())); err == nil {
				continue
			}
		}
		liveOut = append(liveOut, a)
	}
	s.live = liveOut
	s.runAgents(day)
	s.flushIndex()
}

// flushIndex applies the agents phase's staged posting-list edits, each
// (vertical, country) group's in call order on one goroutine, the groups
// spread over the SetWorkers count (Index.BeginStage). Nothing reads a
// posting list while agents step — the index guards that — and the
// flush ends before the phase does, so no serving pass, checkpoint or
// LiveSet ever sees staged state and every list holds the bytes direct
// edits would have left.
func (s *Sim) flushIndex() {
	applying := s.p.Index().Flush()
	if s.timing != nil {
		s.timing.IndexApply += applying
	}
}

// runAgents steps every live agent once, in live order: the order that
// fixes index insertion, collector folds and event bytes.
func (s *Sim) runAgents(day simclock.Day) {
	for _, a := range s.live {
		s.runtime.Step(a, day)
	}
}

// detectionPhase runs the nightly sweep and the caught actors'
// re-registration reactions.
func (s *Sim) detectionPhase(day simclock.Day) {
	for _, id := range s.pipeline.EndOfDay(day) {
		s.maybeReregister(id, day)
	}
}
