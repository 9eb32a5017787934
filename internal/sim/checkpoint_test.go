package sim_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
)

// reframe re-frames a valid checkpoint after editing its payload, whose
// tail is the platform's columns, with a fresh length and CRC: the frame
// passes the framing checks and reaches the decoders.
func reframe(valid []byte, edit func(payload []byte) []byte) []byte {
	n, w := binary.Uvarint(valid[7:])
	p := edit(bytes.Clone(valid[7+w : 7+w+int(n)]))
	frame := binary.AppendUvarint(bytes.Clone(valid[:7]), uint64(len(p)))
	frame = append(frame, p...)
	return binary.LittleEndian.AppendUint32(frame, crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
}

// hostilePlatformFrames re-frames a valid checkpoint with its platform's
// columns swapped for those of a vandalized snapshot of that platform,
// by the reference writer: columns whose lengths, counts and references
// disagree, a match byte no match type has, and a reference filed under
// a list the live index would not file its bid in. The frames are
// CRC-valid and their gob decodes; only the platform's decoder can
// refuse them. Shared by the tests below and the fuzz targets' seed
// corpora.
func hostilePlatformFrames(t testing.TB, valid []byte) map[string][]byte {
	t.Helper()
	c, err := sim.DecodeCheckpoint(valid)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.Restore(c.State)
	if err != nil {
		t.Fatal(err)
	}
	cols := len(s.Platform().Snapshot().AppendColumns(nil))
	out := map[string][]byte{}
	for name, vandalize := range map[string]func(*platform.Snapshot){
		"short bid column":   func(st *platform.Snapshot) { st.BidMax = st.BidMax[1:] },
		"no created column":  func(st *platform.Snapshot) { st.BidCreated = nil },
		"ad counts oversum":  func(st *platform.Snapshot) { st.AdCount[0] += 3 },
		"bid counts oversum": func(st *platform.Snapshot) { st.BidCount[0] += 3 },
		"negative bid count": func(st *platform.Snapshot) { st.BidCount[0] = -st.BidCount[0] - 1 },
		"ref columns differ": func(st *platform.Snapshot) { st.RefBid = st.RefBid[1:] },
		"refs oversum":       func(st *platform.Snapshot) { st.Index[0].Refs += 2 },
		"bid out of range":   func(st *platform.Snapshot) { st.RefBid[0] = 1 << 20 },
		"missing ad":         func(st *platform.Snapshot) { st.RefAd[0] = -7 },
		"ads without counts": func(st *platform.Snapshot) { st.AdCount = nil },
		"match byte 7": func(st *platform.Snapshot) {
			for i := range st.BidMatch {
				st.BidMatch[i] = 7
			}
		},
		"misfiled reference": func(st *platform.Snapshot) { st.Index[0].Kw = -1 },
	} {
		st := s.Platform().Snapshot()
		vandalize(st)
		out[name] = reframe(valid, func(p []byte) []byte { return append(p[:len(p)-cols], st.AppendColumns(nil)...) })
	}
	return out
}

// reframeColumns re-frames a valid checkpoint after cutting or extending
// its columns: the frames reach the column decoder, which refuses them.
func reframeColumns(valid []byte) map[string][]byte {
	return map[string][]byte{
		"trailing column byte": reframe(valid, func(p []byte) []byte { return append(p, 0) }),
		"short last column":    reframe(valid, func(p []byte) []byte { return p[:len(p)-1] }),
	}
}

// midRunCheckpoint runs a small sim to a mid-horizon day boundary and
// returns it with its checkpoint frame.
func midRunCheckpoint(t testing.TB) (*sim.Sim, []byte) {
	t.Helper()
	s := sim.New(crashConfig(5))
	for int(s.Day()) < 12 {
		if !s.Step() {
			t.Fatal("horizon ended before checkpoint day")
		}
	}
	return s, checkpointFrame(t, s)
}

func checkpointFrame(t testing.TB, s *sim.Sim) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ck.frsnap")
	if err := s.WriteCheckpointFile(path, sim.LogPosition{NextSegment: 3, Events: 99}); err != nil {
		t.Fatal(err)
	}
	frame, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestCheckpointRoundTripByteEqual: encode → decode → Restore → Snapshot
// → encode reproduces the file byte for byte, and saving twice through
// the sim's reused frame buffer does too.
func TestCheckpointRoundTripByteEqual(t *testing.T) {
	s, first := midRunCheckpoint(t)
	if again := checkpointFrame(t, s); !bytes.Equal(first, again) {
		t.Fatal("two saves of one state differ")
	}
	c, err := sim.DecodeCheckpoint(first)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := sim.Restore(c.State)
	if err != nil {
		t.Fatal(err)
	}
	if second := checkpointFrame(t, restored); !bytes.Equal(first, second) {
		t.Fatalf("round trip changed the checkpoint: %d bytes -> %d bytes", len(first), len(second))
	}
}

// TestRestoreRecountsDetections: a checkpoint stores the detection
// records but neither the first-detection index nor the shutdowns by
// stage, so Restore rebuilds the one and Finish recounts the other. Both
// must equal an uninterrupted run's.
func TestRestoreRecountsDetections(t *testing.T) {
	cfg := sweepConfig(17)
	whole := sim.New(cfg)
	for whole.Step() {
	}
	want := whole.Finish()

	s := sim.New(cfg)
	for s.Day() < cfg.Days/2 {
		s.Step()
	}
	c, err := sim.DecodeCheckpoint(checkpointFrame(t, s))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := sim.Restore(c.State)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Collector().Detections()) == 0 {
		t.Fatal("no detection before the restore day: nothing to rebuild")
	}
	for restored.Step() {
	}
	got := restored.Finish()
	for id := range platform.AccountID(want.Platform.NumAccounts()) {
		wantAt, wantOK := want.Collector.DetectedAt(id)
		gotAt, gotOK := got.Collector.DetectedAt(id)
		if gotAt != wantAt || gotOK != wantOK {
			t.Fatalf("account %d: DetectedAt = (%v, %v) after a restore, (%v, %v) uninterrupted", id, gotAt, gotOK, wantAt, wantOK)
		}
	}
	if !maps.Equal(got.ShutdownsByStage, want.ShutdownsByStage) {
		t.Fatalf("ShutdownsByStage = %v after a restore, %v uninterrupted", got.ShutdownsByStage, want.ShutdownsByStage)
	}
}

// TestRestoreRejectsInconsistentPlatform: a frame that passes the CRC and
// gob but whose platform columns disagree never reaches Restore: the
// platform's decoder refuses it inside DecodeCheckpoint.
func TestRestoreRejectsInconsistentPlatform(t *testing.T) {
	_, valid := midRunCheckpoint(t)
	for name, frame := range hostilePlatformFrames(t, valid) {
		if _, err := sim.DecodeCheckpoint(frame); err == nil || !strings.Contains(err.Error(), "platform: columns") {
			t.Fatalf("%s: DecodeCheckpoint = %v, want a platform column error", name, err)
		}
	}
}

// TestDecodeCheckpointRejectsBadColumns: damage inside the platform's
// columns of a CRC-valid frame is a decode error, never a panic.
func TestDecodeCheckpointRejectsBadColumns(t *testing.T) {
	_, valid := midRunCheckpoint(t)
	for name, frame := range reframeColumns(valid) {
		if _, err := sim.DecodeCheckpoint(frame); err == nil || !strings.Contains(err.Error(), "platform: columns") {
			t.Fatalf("%s: DecodeCheckpoint = %v, want a column decode error", name, err)
		}
	}
}

// TestCheckpointRefusesOlderVersions: each layout replaced the one before
// outright (version 4's column codec replaced version 3's gob columns,
// version 5 dropped the columns the platform can recount);
// older files are refused by the version check, not misread.
func TestCheckpointRefusesOlderVersions(t *testing.T) {
	_, valid := midRunCheckpoint(t)
	for _, v := range []byte{1, 2, 3, 4} {
		old := bytes.Clone(valid)
		old[6] = v
		if _, err := sim.DecodeCheckpoint(old); err == nil || !strings.Contains(err.Error(), "unsupported checkpoint version") {
			t.Fatalf("version %d: DecodeCheckpoint = %v, want a version refusal", v, err)
		}
	}
}

// atDrawAhead steps a small sim to day 1's agents→serving boundary,
// where the day's queries are drawn and not yet served.
func atDrawAhead(t *testing.T) *sim.Sim {
	t.Helper()
	s := sim.New(sweepConfig(17))
	s.Step()
	for s.Phase() != sim.PhaseServing {
		s.StepPhase()
	}
	return s
}

// TestSaveRefusedMidDay: between the agents and serving phases a save
// returns an error and leaves no file behind.
func TestSaveRefusedMidDay(t *testing.T) {
	s := atDrawAhead(t)
	if _, err := sim.LiveFrame(s); err == nil {
		t.Fatal("a save between the agents and serving phases encoded a frame")
	}
	path := filepath.Join(t.TempDir(), "ck.frsnap")
	if err := s.WriteCheckpointFile(path, sim.LogPosition{}); err == nil {
		t.Fatal("WriteCheckpointFile succeeded between the agents and serving phases")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a refused save left %s behind (%v)", path, err)
	}
}

// TestSnapshotPanicsMidDay: the Snapshot oracle has no error to return,
// so off a day boundary it panics.
func TestSnapshotPanicsMidDay(t *testing.T) {
	s := atDrawAhead(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Snapshot between the agents and serving phases did not panic")
		}
	}()
	s.Snapshot()
}
