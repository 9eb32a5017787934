package sim

import (
	"fmt"
	"io"

	"repro/internal/eventlog"
)

// Resumed is a run restored from a checkpoint lineage by ResumeRun.
type Resumed struct {
	Sim *Sim
	// Log is the event log reopened at the checkpoint's segment boundary
	// and attached as the Sim's event sink; nil when the run has no log.
	Log *eventlog.DirWriter
	// LogBase counts the events the log already holds below that
	// boundary, written by earlier processes.
	LogBase uint64
	// From is the checkpoint file the run was restored from.
	From string
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
func ResumeRun(lin Lineage, logDir string, notes io.Writer) (*Resumed, error) {
	c, lrep, err := lin.Load()
	if note := lrep.String(); note != "" {
		fmt.Fprintf(notes, "checkpoint lineage: %s\n", note)
	}
	if err != nil {
		return nil, err
	}
	r := &Resumed{From: lrep.From}
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
