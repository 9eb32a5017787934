package sim

import (
	"fmt"
	"io"

	"repro/internal/eventlog"
	"repro/internal/simclock"
)

// Durable is the durable run of DESIGN.md §6, a Sim writing an event log
// and checkpointed at its segment boundaries: started by NewDurable or
// ResumeRun, driven to the horizon by RunDays.
type Durable struct {
	Sim *Sim
	// Log is the event log attached as the Sim's event sink; nil when the
	// run has no log. A resumed run's log was reopened at the
	// checkpoint's segment boundary.
	Log *eventlog.DirWriter
	// LogBase counts the events the log already holds below that
	// boundary, written by earlier processes.
	LogBase uint64
	// From is the checkpoint file a resumed run was restored from.
	From string
}

// NewDurable starts a fresh run of cfg, logging to a new event log in
// logDir unless it is "".
func NewDurable(cfg Config, logDir string) (d *Durable, err error) {
	d = &Durable{}
	if logDir != "" {
		if d.Log, err = eventlog.NewDirWriter(logDir); err != nil {
			return nil, err
		}
		cfg.Events = d.Log
	}
	d.Sim = New(cfg)
	return d, nil
}

// ResumeRun is the recovery path of DESIGN.md §6 in one call: restore
// the newest valid checkpoint of lin (quarantining damaged generations),
// heal whatever a crash left in logDir, drop every segment written after
// the checkpoint so the log rejoins the simulation at the same day
// boundary, reopen the log there and attach it to the restored Sim.
// logDir "" resumes a run that was never logged. What the lineage walk
// and the log repair did beyond a clean restore is written to notes, one
// line each.
//
// A lineage with nothing to restore is the caller's decision: that
// error is returned exactly as Lineage.Load produced it (test it with
// errors.Is against ErrNoCheckpoint and ErrLineageCorrupt) and the log
// directory has not been touched. On any later failure the reopened
// writer is closed before returning.
func ResumeRun(lin Lineage, logDir string, notes io.Writer) (*Durable, error) {
	c, lrep, err := lin.Load()
	if note := lrep.String(); note != "" {
		fmt.Fprintf(notes, "checkpoint lineage: %s\n", note)
	}
	if err != nil {
		return nil, err
	}
	r := &Durable{From: lrep.From}
	if logDir == "" {
		if c.Log.NextSegment > 0 || c.Log.Events > 0 {
			return nil, fmt.Errorf("checkpoint %s was taken with an event log; resume it with the log directory", lrep.From)
		}
	} else {
		rep, err := eventlog.RecoverDir(logDir, true)
		if err != nil {
			return nil, fmt.Errorf("recover event log: %w", err)
		}
		if !rep.Healthy {
			fmt.Fprintln(notes, rep.String())
		}
		if err := eventlog.TruncateToSegment(logDir, c.Log.NextSegment); err != nil {
			return nil, err
		}
		if r.Log, err = eventlog.NewDirWriterAt(logDir, c.Log.NextSegment); err != nil {
			return nil, err
		}
		r.LogBase = c.Log.Events
	}
	if r.Sim, err = Restore(c.State); err != nil {
		if r.Log != nil {
			r.Log.Close()
		}
		return nil, fmt.Errorf("restore %s: %w", lrep.From, err)
	}
	if r.Log != nil {
		r.Sim.SetEvents(r.Log)
	}
	return r, nil
}

// Events counts the records the whole log of a logged run holds so far:
// those below a resumed run's boundary plus this process's appends.
func (d *Durable) Events() uint64 { return d.LogBase + d.Log.Events() }

// RunDays runs the day loop to the horizon. On each day a positive
// multiple of every days past the start day (every <= 0: never) it first
// rotates the log and saves a checkpoint into lin at that segment
// boundary; then it steps the day and hands its number to onDay, if
// set. At the horizon it finishes the Sim and closes the log. The log is
// closed on every error path too, so no staged segment survives one.
func (d *Durable) RunDays(lin Lineage, every int, onDay func(simclock.Day) error) (res *Result, err error) {
	defer func() {
		if d.Log == nil {
			return
		}
		if cerr := d.Log.Close(); err == nil && cerr != nil {
			res, err = nil, fmt.Errorf("event log: %w", cerr)
		}
	}()
	start := d.Sim.Day()
	for day := start; day < d.Sim.cfg.Days; day = d.Sim.Day() {
		if every > 0 && day > start && int(day)%every == 0 {
			var pos LogPosition
			if d.Log != nil {
				if err := d.Log.Rotate(); err != nil {
					return nil, fmt.Errorf("checkpoint: %w", err)
				}
				pos = LogPosition{NextSegment: d.Log.NextSegment(), Events: d.Events()}
			}
			if err := d.Sim.SaveCheckpointLineage(lin, pos); err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
		}
		d.Sim.Step()
		if onDay != nil {
			if err := onDay(day); err != nil {
				return nil, err
			}
		}
	}
	return d.Sim.Finish(), nil
}
