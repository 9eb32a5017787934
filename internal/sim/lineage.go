package sim

// Checkpoint lineage. A single checkpoint file is one bad sector away
// from an unrecoverable run: the atomic-rename discipline protects
// against crashes *during* the write, but nothing protects a checkpoint
// that goes bad on disk afterwards (bit rot, truncation, a partial
// fsync on real hardware). A Lineage keeps the last Retain checkpoints
// as a chain anchored at Path:
//
//	Path     the newest checkpoint (same name a single-file setup used)
//	Path.1   the one before it
//	Path.2   the one before that, ... up to Path.(Retain-1)
//
// Save stages the new checkpoint at Path.tmp (fsync'd), shifts the
// chain by one (Path.1 -> Path.2, Path -> Path.1 — each step a single
// rename, so a crash at any point leaves every surviving file a
// complete, valid checkpoint), then renames the staged file into Path
// and fsyncs the directory. Load walks the chain newest to oldest: a
// file that fails validation (CRC, framing, or decode) is quarantined
// by renaming it to <name>.corrupt — evidence is never deleted — and
// the walk falls back to the next-older snapshot. The caller then
// truncates the event log to the restored checkpoint's segment and
// re-simulates the gap; the trajectory is deterministic, so the rerun
// rewrites byte-identical segments and the run converges on the exact
// digest of an uninterrupted one (proven by the corruption sweep in
// crash_lineage_test.go).

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/eventlog"
)

// DefaultRetain is how many checkpoints a lineage keeps when the caller
// does not say otherwise.
const DefaultRetain = 3

// CorruptSuffix marks a quarantined checkpoint that failed validation.
const CorruptSuffix = ".corrupt"

// ErrNoCheckpoint reports that a lineage holds no checkpoint files at
// all — the "fresh start" signal, distinct from a lineage whose files
// all failed validation.
var ErrNoCheckpoint = errors.New("sim: no checkpoint found")

// ErrLineageCorrupt reports that a lineage had checkpoint files but
// every one failed validation; all were quarantined.
var ErrLineageCorrupt = errors.New("sim: every checkpoint in the lineage is corrupt")

// Lineage is a retained chain of checkpoint files anchored at Path.
type Lineage struct {
	// Path is the anchor: the newest checkpoint's file name. Older
	// generations live beside it as Path.1, Path.2, ...
	Path string
	// Retain bounds the chain length (newest included); <= 0 means
	// DefaultRetain.
	Retain int
}

func (l Lineage) retain() int {
	if l.Retain <= 0 {
		return DefaultRetain
	}
	return l.Retain
}

// gen returns the file name of the i-th newest checkpoint (0 = Path).
func (l Lineage) gen(i int) string {
	if i == 0 {
		return l.Path
	}
	return fmt.Sprintf("%s.%d", l.Path, i)
}

// generations returns every checkpoint file currently on disk in
// newest-to-oldest order (by naming convention: lower suffix = newer),
// including files beyond Retain left by an earlier, longer retention.
func (l Lineage) generations() ([]string, error) {
	var out []string
	if _, err := os.Stat(l.Path); err == nil {
		out = append(out, l.Path)
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	matches, err := filepath.Glob(l.Path + ".*")
	if err != nil {
		return nil, err
	}
	var idx []int
	for _, m := range matches {
		n, err := strconv.Atoi(strings.TrimPrefix(m, l.Path+"."))
		if err != nil || n < 1 {
			continue // .tmp, .corrupt, or some unrelated neighbor
		}
		idx = append(idx, n)
	}
	sort.Ints(idx)
	for _, n := range idx {
		out = append(out, l.gen(n))
	}
	return out, nil
}

// LineageReport describes what a Load did besides returning a
// checkpoint: which file it restored from, which files it quarantined,
// and whether a stale staging file was swept.
type LineageReport struct {
	// From is the file the returned checkpoint was read from ("" when
	// no checkpoint was restored).
	From string
	// Quarantined lists files renamed to <name>.corrupt, newest first.
	Quarantined []string
	// SweptTmp is the stale .tmp staging file removed, if any. A crash
	// between staging and rename leaves one behind; it was never
	// committed, so it is deleted (unlike corrupt committed
	// checkpoints, which are quarantined as evidence).
	SweptTmp string
}

// String renders the report's actions for operator logs; empty when
// nothing noteworthy happened beyond a clean restore.
func (r *LineageReport) String() string {
	var parts []string
	if r.SweptTmp != "" {
		parts = append(parts, fmt.Sprintf("swept stale %s", r.SweptTmp))
	}
	for _, q := range r.Quarantined {
		parts = append(parts, fmt.Sprintf("quarantined %s%s", q, CorruptSuffix))
	}
	return strings.Join(parts, "; ")
}

// SweepTmp removes a stale .tmp staging file left by a crash between
// staging and rename. It reports the path removed ("" if none) and is
// called by both Load and Save, so a lineage heals on the first touch.
func (l Lineage) SweepTmp() (string, error) {
	tmp := l.Path + eventlog.TmpSuffix
	if _, err := os.Stat(tmp); err != nil {
		if os.IsNotExist(err) {
			return "", nil
		}
		return "", err
	}
	if err := os.Remove(tmp); err != nil {
		return "", err
	}
	return tmp, nil
}

// Save writes c as the lineage's newest checkpoint: stage, shift the
// chain, commit, prune. A crash at any point leaves every committed
// checkpoint intact (each shift step is a single atomic rename), so the
// worst a crash can cost is the checkpoint being staged.
func (l Lineage) Save(c *Checkpoint) error {
	frame, err := encodeCheckpoint(new(checkpointBufs), c)
	if err != nil {
		return err
	}
	return l.save(frame)
}

// save is Save of an encoded frame.
func (l Lineage) save(frame []byte) error {
	tmp := l.Path + eventlog.TmpSuffix
	if err := eventlog.StageFile(tmp, frame, true); err != nil {
		return err
	}
	// Shift oldest-first so no generation is ever overwritten by a
	// newer one before it has moved out of the way.
	retain := l.retain()
	for i := retain - 1; i >= 1; i-- {
		if err := os.Rename(l.gen(i-1), l.gen(i)); err != nil && !os.IsNotExist(err) {
			os.Remove(tmp)
			return err
		}
	}
	if err := eventlog.CommitFile(tmp, l.Path, true); err != nil {
		return err
	}
	// Prune generations beyond the retention (a shrunk Retain, or the
	// one shifted off the end of the chain).
	gens, err := l.generations()
	if err != nil {
		return err
	}
	for _, g := range gens {
		if g == l.Path {
			continue
		}
		n, _ := strconv.Atoi(strings.TrimPrefix(g, l.Path+"."))
		if n >= retain {
			if err := os.Remove(g); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return nil
}

// Load restores the newest valid checkpoint in the lineage, sweeping a
// stale staging file and quarantining every newer checkpoint that fails
// validation. It returns ErrNoCheckpoint when the lineage is empty and
// an ErrLineageCorrupt-wrapped error when files existed but none were
// valid; the report is non-nil in every case.
func (l Lineage) Load() (*Checkpoint, *LineageReport, error) {
	rep := &LineageReport{}
	swept, err := l.SweepTmp()
	if err != nil {
		return nil, rep, err
	}
	rep.SweptTmp = swept

	gens, err := l.generations()
	if err != nil {
		return nil, rep, err
	}
	if len(gens) == 0 {
		return nil, rep, ErrNoCheckpoint
	}
	var firstErr error
	for _, g := range gens {
		c, err := ReadCheckpoint(g)
		if err == nil {
			rep.From = g
			return c, rep, nil
		}
		if os.IsNotExist(err) {
			continue // raced away; nothing to quarantine
		}
		if firstErr == nil {
			firstErr = err
		}
		// Quarantine, never delete: the damaged bytes are the only
		// evidence of what went wrong on this disk.
		if qerr := os.Rename(g, g+CorruptSuffix); qerr != nil {
			return nil, rep, fmt.Errorf("sim: quarantine %s: %v (original error: %w)", g, qerr, err)
		}
		rep.Quarantined = append(rep.Quarantined, g)
	}
	return nil, rep, fmt.Errorf("%w (%d quarantined; newest: %v)", ErrLineageCorrupt, len(rep.Quarantined), firstErr)
}

// SaveCheckpointLineage saves the sim's checkpoint as the lineage's
// newest — the retained-chain counterpart of WriteCheckpointFile.
func (s *Sim) SaveCheckpointLineage(l Lineage, pos LogPosition) error {
	frame, err := s.encodeCheckpoint(pos)
	if err != nil {
		return err
	}
	return l.save(frame)
}
