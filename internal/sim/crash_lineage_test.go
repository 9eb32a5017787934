// Lineage corruption sweep: the disaster this layer exists for is a
// checkpoint that goes bad on disk *after* the atomic write succeeded —
// the crash suite's torn tails never touch a committed snapshot. Here
// every faultinject corruption profile damages the lineage at every
// fallback depth, and the restore must still converge on the canonical
// digest of an uninterrupted run: shallower damage costs re-simulated
// days, never correctness. (`make crash` runs TestCrash*.)
package sim_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eventlog"
	"repro/internal/faultinject"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// crashAt runs d as RunDays would, handing each save to inj if set, and
// abandons it at stopDay — no Finish, no log Close — exactly the state a
// killed process leaves.
func crashAt(t *testing.T, d *sim.Durable, lin sim.Lineage, every, stopDay int, inj *faultinject.CkptInjector) {
	t.Helper()
	for day := int(d.Sim.Day()); ; day = int(d.Sim.Day()) {
		if day > 0 && day%every == 0 {
			if err := d.Log.Rotate(); err != nil {
				t.Fatalf("rotate at day %d: %v", day, err)
			}
			pos := sim.LogPosition{NextSegment: d.Log.NextSegment(), Events: d.Events()}
			if err := d.Sim.SaveCheckpointLineage(lin, pos); err != nil {
				t.Fatalf("lineage save at day %d: %v", day, err)
			}
			if inj != nil {
				if _, err := inj.OnSave(lin.Path); err != nil {
					t.Fatalf("corrupt save at day %d: %v", day, err)
				}
			}
		}
		if day >= stopDay {
			return
		}
		d.Sim.Step()
	}
}

// resumeDurable is the recovery path a resumed process runs (repair the
// log, restore the newest valid checkpoint, truncate the log to it);
// running the result rewrites the dropped segments byte-identically.
func resumeDurable(t *testing.T, dir string, lin sim.Lineage) *sim.Durable {
	t.Helper()
	var notes strings.Builder
	d, err := sim.ResumeRun(lin, dir, &notes)
	if err != nil {
		t.Fatalf("resume: %v (notes: %s)", err, notes.String())
	}
	return d
}

// quarantined lists the lineage's .corrupt evidence files.
func quarantined(t *testing.T, lin sim.Lineage) []string {
	t.Helper()
	q, err := filepath.Glob(lin.Path + "*" + sim.CorruptSuffix)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func checkCanonical(t *testing.T, dir string, res *sim.Result, wantFP string, wantReplay testutil.CollectorDigestSet) {
	t.Helper()
	cfg := crashConfig(1234)
	if got := testutil.DigestResult(res).Fingerprint; got != wantFP {
		t.Errorf("recovered result digest %s, uninterrupted run has %s", got, wantFP)
	}
	col, err := dataset.ReplayDir(dir, cfg.Windows, cfg.SampleWindow)
	if err != nil {
		t.Fatalf("replay recovered log: %v", err)
	}
	if got := testutil.CollectorDigests(col); got != wantReplay {
		t.Errorf("replayed log digests diverge:\n got %+v\nwant %+v", got, wantReplay)
	}
}

// TestCrashLineageCorruptionFallback is the corruption acceptance
// sweep: for every damage profile × fallback depth d, crash a run, then
// damage the d newest checkpoints in its lineage. Restore must
// quarantine all d, fall back to the next snapshot, and finish with the
// canonical digest. At full depth (every generation damaged) the
// lineage reports ErrLineageCorrupt and a from-scratch run — the
// operator's last resort — still reaches the same digest.
func TestCrashLineageCorruptionFallback(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs many partial simulations")
	}
	wantFP, wantReplay := baselineDigests(t)
	const every = 4
	const crashDay = 17 // saves at days 4,8,12,16 → lineage holds 16,12,8

	for _, spec := range []string{"bitflip", "truncate=64", "zerofill@16:256"} {
		profile, err := faultinject.ParseCkptFaults(spec)
		if err != nil {
			t.Fatalf("parse %q: %v", spec, err)
		}
		for depth := 1; depth <= sim.DefaultRetain; depth++ {
			spec, profile, depth := spec, profile, depth
			t.Run(fmt.Sprintf("%s/depth=%d", spec, depth), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				lin := sim.Lineage{Path: filepath.Join(t.TempDir(), "checkpoint.frsnap")}
				crashAt(t, newDurable(t, dir), lin, every, crashDay, nil)

				// Damage the `depth` newest generations.
				inj := faultinject.New(uint64(depth)*7919).Ckpt(spec, profile)
				for g := 0; g < depth; g++ {
					target := lin.Path
					if g > 0 {
						target = fmt.Sprintf("%s.%d", lin.Path, g)
					}
					if err := inj.Corrupt(target); err != nil {
						t.Fatalf("corrupt generation %d: %v", g, err)
					}
				}

				if depth == sim.DefaultRetain {
					// Every snapshot is gone: the lineage must say so
					// loudly (and keep the evidence), and a fresh run over
					// a wiped log dir is the recovery of last resort.
					if _, err := eventlog.RecoverDir(dir, true); err != nil {
						t.Fatalf("recover: %v", err)
					}
					_, rep, err := lin.Load()
					if !errors.Is(err, sim.ErrLineageCorrupt) {
						t.Fatalf("Load on fully-damaged lineage: %v, want ErrLineageCorrupt", err)
					}
					if len(rep.Quarantined) != depth {
						t.Fatalf("quarantined %v, want %d files", rep.Quarantined, depth)
					}
					if err := os.RemoveAll(dir); err != nil {
						t.Fatal(err)
					}
					res := runDurable(t, newDurable(t, dir), lin, every)
					checkCanonical(t, dir, res, wantFP, wantReplay)
					return
				}

				res := runDurable(t, resumeDurable(t, dir, lin), lin, every)
				if q := quarantined(t, lin); len(q) != depth {
					t.Errorf("quarantine evidence %v, want %d files", q, depth)
				}
				checkCanonical(t, dir, res, wantFP, wantReplay)
			})
		}
	}
}

// TestCrashLineageCorruptSaveN exercises the corrupt-save-N profile end
// to end: the damage lands at write time (the file is poisoned the
// moment it is committed) and then ages through the chain as later
// saves shift it deeper. Whether the poisoned save is the newest at
// crash time (forcing fallback) or already buried (restoring clean),
// the digest must stay canonical.
func TestCrashLineageCorruptSaveN(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs partial simulations")
	}
	wantFP, wantReplay := baselineDigests(t)
	const every = 4
	const crashDay = 17 // saves 1..4 at days 4,8,12,16

	for _, n := range []int{2, 4} { // save 2 ends up buried at ck.2; save 4 is the newest
		n := n
		t.Run(fmt.Sprintf("save=%d", n), func(t *testing.T) {
			t.Parallel()
			spec := fmt.Sprintf("bitflip,save=%d", n)
			profile, err := faultinject.ParseCkptFaults(spec)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			lin := sim.Lineage{Path: filepath.Join(t.TempDir(), "checkpoint.frsnap")}
			crashAt(t, newDurable(t, dir), lin, every, crashDay, faultinject.New(42).Ckpt("lineage", profile))

			res := runDurable(t, resumeDurable(t, dir, lin), lin, every)
			wantQuarantine := 0
			if n == 4 {
				wantQuarantine = 1 // the newest snapshot was the poisoned one
			}
			if q := quarantined(t, lin); len(q) != wantQuarantine {
				t.Errorf("quarantine evidence %v, want %d files", q, wantQuarantine)
			}
			checkCanonical(t, dir, res, wantFP, wantReplay)
		})
	}
}
