package detection

// Checkpoint support. PipelineState is the gob-friendly form of a
// Pipeline's accumulated state: the RNG stream position and the
// per-account monitoring records (encoded sparsely — gob rejects the nil
// holes the states slice uses for unmonitored accounts). The shutdowns by
// stage are not stored: they are a count of the collector's detection
// records (dataset.Collector.ShutdownsByStage). Configuration (Config,
// platform, collector, horizon) is re-supplied to New on restore.

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/platform"
	"repro/internal/simclock"
	"repro/internal/stats"
)

// AccountState is the serializable form of one monitored account's
// tracking record.
type AccountState struct {
	ID       platform.AccountID
	Det      Detectability
	Enrolled simclock.Stamp
	RNG      stats.RNGState

	BaseDue       simclock.Stamp
	BaseStage     dataset.DetectionStage
	BaseScheduled bool
	FlagDue       simclock.Stamp
	FlagStage     dataset.DetectionStage
	PaymentDue    simclock.Stamp

	LastImpr   int64
	LastClicks int64
	Complaints float64
}

// PipelineState is the serializable state of a Pipeline.
type PipelineState struct {
	RNG       stats.RNGState
	NumStates int
	States    []AccountState
}

// StateInto captures the pipeline's accumulated state into st, reusing
// st's slices: a checkpoint writer keeps one PipelineState between saves.
func (d *Pipeline) StateInto(st *PipelineState) {
	*st = PipelineState{
		RNG:       d.rng.State(),
		NumStates: len(d.states),
		States:    st.States[:0],
	}
	for _, s := range d.states {
		if s == nil {
			continue
		}
		st.States = append(st.States, AccountState{
			ID:            s.id,
			Det:           s.det,
			Enrolled:      s.enrolled,
			RNG:           s.rng.State(),
			BaseDue:       s.baseDue,
			BaseStage:     s.baseStage,
			BaseScheduled: s.baseScheduled,
			FlagDue:       s.flagDue,
			FlagStage:     s.flagStage,
			PaymentDue:    s.paymentDue,
			LastImpr:      s.lastImpr,
			LastClicks:    s.lastClicks,
			Complaints:    s.complaints,
		})
	}
}

// SetState restores a snapshot captured by StateInto onto a pipeline
// built by New with the same configuration. Indexes are bounds-checked so
// hostile snapshot bytes yield an error, never a panic.
func (d *Pipeline) SetState(st *PipelineState) error {
	if st == nil {
		return fmt.Errorf("detection: nil pipeline state")
	}
	if st.NumStates < 0 || st.NumStates > d.p.NumAccounts() {
		return fmt.Errorf("detection: pipeline state tracks %d accounts, platform has %d", st.NumStates, d.p.NumAccounts())
	}
	d.rng.SetState(st.RNG)
	d.states = make([]*state, st.NumStates)
	for _, as := range st.States {
		if int(as.ID) < 0 || int(as.ID) >= st.NumStates {
			return fmt.Errorf("detection: pipeline state account %d out of range [0, %d)", as.ID, st.NumStates)
		}
		if d.states[as.ID] != nil {
			return fmt.Errorf("detection: pipeline state account %d duplicated", as.ID)
		}
		st := &state{
			id:            as.ID,
			det:           as.Det,
			enrolled:      as.Enrolled,
			baseDue:       as.BaseDue,
			baseStage:     as.BaseStage,
			baseScheduled: as.BaseScheduled,
			flagDue:       as.FlagDue,
			flagStage:     as.FlagStage,
			paymentDue:    as.PaymentDue,
			lastImpr:      as.LastImpr,
			lastClicks:    as.LastClicks,
			complaints:    as.Complaints,
		}
		st.rng.SetState(as.RNG)
		d.states[as.ID] = st
	}
	return nil
}
