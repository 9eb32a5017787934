package agents

// Checkpoint support: exported, gob-friendly state structs for the three
// stateful actors in this package. The contract throughout is that State
// captures only what New* cannot rebuild — RNG stream positions and
// accumulated mutable data — and SetState overwrites exactly that on a
// freshly constructed instance, so a restored object continues the same
// deterministic trajectory as the original.

import (
	"repro/internal/adcopy"
	"repro/internal/platform"
	"repro/internal/simclock"
	"repro/internal/stats"
)

// AgentState is the serializable form of an Agent.
type AgentState struct {
	Profile   Profile
	Account   platform.AccountID
	StartDay  simclock.Day
	StartFrac float64
	Domains   []string
	RNG       stats.RNGState
}

// StateInto captures the agent's full state into st, reusing st's
// Domains array.
func (a *Agent) StateInto(st *AgentState) {
	*st = AgentState{
		Profile:   a.Profile,
		Account:   a.Account,
		StartDay:  a.StartDay,
		StartFrac: a.startFrac,
		Domains:   append(st.Domains[:0], a.domains...),
		RNG:       a.rng.State(),
	}
}

// RestoreAgent rebuilds an Agent from a snapshot.
func RestoreAgent(st AgentState) *Agent {
	a := &Agent{
		Profile:   st.Profile,
		Account:   st.Account,
		StartDay:  st.StartDay,
		startFrac: st.StartFrac,
		domains:   append([]string(nil), st.Domains...),
		rng:       stats.NewRNG(0),
	}
	a.rng.SetState(st.RNG)
	return a
}

// FactoryState is the serializable state of a Factory: its RNG stream
// positions plus the techsupport policy flag (which the sim engine flips
// mid-run and would otherwise be lost on resume past the ban day). The
// vertical tables, sampler weights and lognormal parameters are pure
// functions of the construction inputs.
type FactoryState struct {
	FraudRNG    stats.RNGState
	LegitRNG    stats.RNGState
	FraudReg    stats.RNGState
	LegitReg    stats.RNGState
	FraudTarget stats.RNGState
	PortfolioLN stats.RNGState
	KwPerAdLN   stats.RNGState
	FraudSizeLN stats.RNGState
	LegitBidLN  stats.RNGState
	FraudBidLN  stats.RNGState

	TechSupportBanned bool
}

// State captures the factory's stream positions and policy flags.
func (f *Factory) State() FactoryState {
	return FactoryState{
		FraudRNG:          f.fraudRNG.State(),
		LegitRNG:          f.legitRNG.State(),
		FraudReg:          f.fraudReg.RNG().State(),
		LegitReg:          f.legitReg.RNG().State(),
		FraudTarget:       f.fraudTarget.RNG().State(),
		PortfolioLN:       f.portfolioLN.RNG().State(),
		KwPerAdLN:         f.kwPerAdLN.RNG().State(),
		FraudSizeLN:       f.fraudSizeLN.RNG().State(),
		LegitBidLN:        f.legitBidLN.RNG().State(),
		FraudBidLN:        f.fraudBidLN.RNG().State(),
		TechSupportBanned: f.techSupportBanned,
	}
}

// SetState restores a snapshot captured by State onto a factory built by
// NewFactory. The pocketsDisabled ablation flag is configuration, not
// accumulated state, and stays whatever the caller set it to.
func (f *Factory) SetState(st FactoryState) {
	f.fraudRNG.SetState(st.FraudRNG)
	f.legitRNG.SetState(st.LegitRNG)
	f.fraudReg.RNG().SetState(st.FraudReg)
	f.legitReg.RNG().SetState(st.LegitReg)
	f.fraudTarget.RNG().SetState(st.FraudTarget)
	f.portfolioLN.RNG().SetState(st.PortfolioLN)
	f.kwPerAdLN.RNG().SetState(st.KwPerAdLN)
	f.fraudSizeLN.RNG().SetState(st.FraudSizeLN)
	f.legitBidLN.RNG().SetState(st.LegitBidLN)
	f.fraudBidLN.RNG().SetState(st.FraudBidLN)
	f.techSupportBanned = st.TechSupportBanned
}

// RuntimeState is the serializable state of a Runtime: its three RNG
// streams plus the domain generator's uniqueness bookkeeping.
type RuntimeState struct {
	RNG     stats.RNGState
	CopyRNG stats.RNGState
	Domains adcopy.DomainGeneratorState
}

// State captures the runtime's stream positions and domain bookkeeping.
func (r *Runtime) State() RuntimeState {
	return RuntimeState{
		RNG:     r.rng.State(),
		CopyRNG: r.copygen.RNG().State(),
		Domains: r.domgen.State(),
	}
}

// SetState restores a snapshot captured by State onto a runtime built by
// NewRuntime.
func (r *Runtime) SetState(st RuntimeState) {
	r.rng.SetState(st.RNG)
	r.copygen.RNG().SetState(st.CopyRNG)
	r.domgen.SetState(st.Domains)
}
