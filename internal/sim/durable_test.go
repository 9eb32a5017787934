package sim_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/eventlog"
	"repro/internal/sim"
	"repro/internal/simclock"
)

// TestDurableRunDays runs the durable day loop fresh until its callback
// fails, then resumed at another cadence. Checkpoints land on exactly the
// cadence's multiples above each start day, each recording the events
// the log holds below its boundary; the callback sees every day in order;
// the failed run leaves no staged segment; and the pair finishes on the
// uninterrupted run's digests.
func TestDurableRunDays(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs simulations")
	}
	wantFP, wantReplay := baselineDigests(t)
	dir := t.TempDir()
	lin := sim.Lineage{Path: filepath.Join(t.TempDir(), "ck.frsnap")}
	stop := errors.New("stop")

	// onDay records the days it sees and the day of each new checkpoint,
	// which RunDays saves just before stepping that day.
	var days, ckpts []int
	last, stopDay := 0, 9
	onDay := func(day simclock.Day) error {
		days = append(days, int(day))
		if info, err := sim.InspectCheckpoint(lin.Path); err == nil && info.Day != last {
			last = info.Day
			ckpts = append(ckpts, last)
			m, err := eventlog.ReadManifest(dir)
			if err != nil || m == nil {
				return fmt.Errorf("manifest: %v", err)
			}
			var held uint64
			for _, seg := range m.Segments {
				if idx, _ := eventlog.SegmentIndex(seg.Name); idx < info.Log.NextSegment {
					held += seg.Events
				}
			}
			if held != info.Log.Events {
				t.Errorf("checkpoint at day %d records %d events, the manifest %d below segment %d",
					last, info.Log.Events, held, info.Log.NextSegment)
			}
		}
		if int(day) == stopDay {
			return stop
		}
		return nil
	}

	if _, err := newDurable(t, dir).RunDays(lin, 4, onDay); !errors.Is(err, stop) {
		t.Fatalf("callback error: RunDays returned %v", err)
	}
	if !slices.Equal(days, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) || !slices.Equal(ckpts, []int{4, 8}) {
		t.Errorf("fresh run: callback days %v, checkpoints %v; want 0..9, [4 8]", days, ckpts)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.evlog"+eventlog.TmpSuffix)); len(tmps) > 0 {
		t.Errorf("callback error left staged segments: %v", tmps)
	}

	days, ckpts, stopDay = nil, nil, -1 // last stays 8, the day the resume restores
	res, err := resumeDurable(t, dir, lin).RunDays(lin, 3, onDay)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(days, []int{8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25}) ||
		!slices.Equal(ckpts, []int{9, 12, 15, 18, 21, 24}) {
		t.Errorf("resumed run: callback days %v, checkpoints %v; want 8..25, [9 12 ... 24]", days, ckpts)
	}
	checkCanonical(t, dir, res, wantFP, wantReplay)
}
