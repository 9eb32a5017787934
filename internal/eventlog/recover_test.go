package eventlog

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildLog writes n impressions through a DirWriter with small segments
// and returns the writer (not yet closed) so tests can pick how it ends.
func buildLog(t *testing.T, dir string, n int) *DirWriter {
	t.Helper()
	dw, err := NewDirWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	dw.segmentBytes = 128
	for i := 0; i < n; i++ {
		dw.Append(Event{Type: TypeImpression, Day: int32(i), Account: int32(i % 5), Country: "US", Position: 1})
	}
	if err := dw.Err(); err != nil {
		t.Fatal(err)
	}
	return dw
}

func countEvents(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	if err := ScanDir(dir, Filter{}, func(*Event) error { n++; return nil }); err != nil {
		t.Fatalf("scan %s: %v", dir, err)
	}
	return n
}

func TestSealedSegmentsHaveManifest(t *testing.T) {
	dir := t.TempDir()
	dw := buildLog(t, dir, 60)
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*"+TmpSuffix)); len(tmps) != 0 {
		t.Fatalf("unsealed files remain after Close: %v", tmps)
	}
	segs, err := Segments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want multiple sealed segments, got %v (%v)", segs, err)
	}
	m, err := ReadManifest(dir)
	if err != nil || m == nil {
		t.Fatalf("manifest: %v %v", m, err)
	}
	if len(m.Segments) != len(segs) || m.NextSegment != len(segs) {
		t.Fatalf("manifest lists %d segments next=%d, dir has %d", len(m.Segments), m.NextSegment, len(segs))
	}
	var total uint64
	for i, s := range m.Segments {
		fi, err := os.Stat(filepath.Join(dir, s.Name))
		if err != nil {
			t.Fatalf("manifest names missing file: %v", err)
		}
		if uint64(fi.Size()) != s.Bytes {
			t.Fatalf("segment %d: manifest bytes %d, file %d", i, s.Bytes, fi.Size())
		}
		crc, err := fileCRC(filepath.Join(dir, s.Name), fi.Size())
		if err != nil || crc != s.CRC32C {
			t.Fatalf("segment %d: manifest CRC %08x, file %08x (%v)", i, s.CRC32C, crc, err)
		}
		total += s.Events
	}
	if total != 60 {
		t.Fatalf("manifest events total %d, want 60", total)
	}

	rep, err := RecoverDir(dir, false)
	if err != nil || !rep.Healthy {
		t.Fatalf("clean closed log not healthy: %+v (%v)", rep, err)
	}
	if rep.NextSegment != len(segs) || rep.Events != 60 {
		t.Fatalf("report next=%d events=%d, want %d/60", rep.NextSegment, rep.Events, len(segs))
	}
}

func TestRecoverTornTmpTail(t *testing.T) {
	dir := t.TempDir()
	dw := buildLog(t, dir, 60) // abandoned: active segment left as .tmp
	if err := dw.Flush(); err != nil {
		t.Fatal(err)
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, "events-*.evlog"+TmpSuffix))
	if len(tmps) != 1 {
		t.Fatalf("want one tmp tail, got %v", tmps)
	}
	b, err := os.ReadFile(tmps[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmps[0], b[:len(b)-2], 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := RecoverDir(dir, false)
	if err != nil {
		t.Fatalf("dry run: %v", err)
	}
	if rep.Healthy || rep.DroppedBytes == 0 {
		t.Fatalf("torn tail not detected: %+v", rep)
	}
	if _, err := os.Stat(tmps[0]); err != nil {
		t.Fatal("dry run touched the tmp tail")
	}

	rep, err = RecoverDir(dir, true)
	if err != nil || !rep.Applied {
		t.Fatalf("repair: %+v (%v)", rep, err)
	}
	if tmpsAfter, _ := filepath.Glob(filepath.Join(dir, "*"+TmpSuffix)); len(tmpsAfter) != 0 {
		t.Fatalf("tmp files survive repair: %v", tmpsAfter)
	}
	// Torn final frame dropped; every earlier frame preserved.
	if got := countEvents(t, dir); got != int(rep.Events) || got < 50 || got >= 60 {
		t.Fatalf("recovered log has %d events (report says %d)", got, rep.Events)
	}
	rep2, err := RecoverDir(dir, false)
	if err != nil || !rep2.Healthy {
		t.Fatalf("repaired log not healthy: %+v (%v)", rep2, err)
	}
	if rep2.NextSegment != rep.NextSegment {
		t.Fatalf("next segment drifted: %d vs %d", rep2.NextSegment, rep.NextSegment)
	}
}

func TestRecoverRemovesFramelessTmp(t *testing.T) {
	dir := t.TempDir()
	dw := buildLog(t, dir, 20)
	if err := dw.Rotate(); err != nil {
		t.Fatal(err)
	}
	sealed := dw.NextSegment()
	// Simulate a crash before the next segment's first frame completed:
	// a tmp holding only part of the header.
	path := filepath.Join(dir, fmt.Sprintf(SegmentPattern, sealed)+TmpSuffix)
	if err := os.WriteFile(path, Magic[:3], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := RecoverDir(dir, true)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("frameless tmp not removed")
	}
	if rep.NextSegment != sealed {
		t.Fatalf("next segment %d, want %d", rep.NextSegment, sealed)
	}
	if got := countEvents(t, dir); got != 20 {
		t.Fatalf("lost sealed events: %d", got)
	}
}

func TestRecoverSealedSegmentMissingFromManifest(t *testing.T) {
	dir := t.TempDir()
	dw := buildLog(t, dir, 60)
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash between rename and manifest write: drop the last entry.
	m, err := ReadManifest(dir)
	if err != nil || m == nil || len(m.Segments) < 2 {
		t.Fatalf("manifest: %+v (%v)", m, err)
	}
	m.Segments = m.Segments[:len(m.Segments)-1]
	m.NextSegment--
	if err := writeManifest(dir, m, false); err != nil {
		t.Fatal(err)
	}

	rep, err := RecoverDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy {
		t.Fatal("stale manifest not detected")
	}
	foundMismatch := false
	for _, sr := range rep.Segments {
		if sr.ManifestMismatch == "not in manifest" {
			foundMismatch = true
		}
		if sr.Truncated || sr.Removed {
			t.Fatalf("manifest-only repair must not touch segment bytes: %+v", sr)
		}
	}
	if !foundMismatch {
		t.Fatalf("missing-entry mismatch not reported: %+v", rep.Segments)
	}
	if _, err := RecoverDir(dir, true); err != nil {
		t.Fatal(err)
	}
	rep2, err := RecoverDir(dir, false)
	if err != nil || !rep2.Healthy {
		t.Fatalf("manifest not healed: %+v (%v)", rep2, err)
	}
}

func TestRecoverLegacyLogWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	dw := buildLog(t, dir, 60)
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	// Legacy in-place writers could also tear the last sealed segment.
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1]
	b, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, b[:len(b)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := RecoverDir(dir, true)
	if err != nil {
		t.Fatalf("repair legacy log: %v", err)
	}
	if rep.Healthy || !rep.Applied {
		t.Fatalf("legacy torn tail not repaired: %+v", rep)
	}
	rep2, err := RecoverDir(dir, false)
	if err != nil || !rep2.Healthy {
		t.Fatalf("repaired legacy log not healthy: %+v (%v)", rep2, err)
	}
	if m, err := ReadManifest(dir); err != nil || m == nil || len(m.Segments) != len(segs) {
		t.Fatalf("repair did not rebuild the manifest: %+v (%v)", m, err)
	}
}

func TestRecoverRefusesMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	dw := buildLog(t, dir, 60)
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("segments: %v (%v)", segs, err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(segs[0])
	if _, err := RecoverDir(dir, true); err == nil {
		t.Fatal("mid-log corruption must not be silently repaired")
	}
	after, _ := os.ReadFile(segs[0])
	if string(before) != string(after) {
		t.Fatal("failed repair modified a sealed segment")
	}
}

func TestTruncateToSegmentAndResume(t *testing.T) {
	dir := t.TempDir()
	dw := buildLog(t, dir, 60)
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %v (%v)", segs, err)
	}
	keep := 2
	var kept uint64
	m, _ := ReadManifest(dir)
	for _, s := range m.Segments[:keep] {
		kept += s.Events
	}
	if err := TruncateToSegment(dir, keep); err != nil {
		t.Fatal(err)
	}
	if got := countEvents(t, dir); got != int(kept) {
		t.Fatalf("truncated log has %d events, want %d", got, kept)
	}

	// Resume writing at the boundary and confirm the whole log decodes.
	dw2, err := NewDirWriterAt(dir, keep)
	if err != nil {
		t.Fatal(err)
	}
	dw2.segmentBytes = 128
	for i := 0; i < 10; i++ {
		dw2.Append(Event{Type: TypeAdModified, Day: 99, Account: 1})
	}
	if err := dw2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := countEvents(t, dir); got != int(kept)+10 {
		t.Fatalf("resumed log has %d events, want %d", got, int(kept)+10)
	}
	rep, err := RecoverDir(dir, false)
	if err != nil || !rep.Healthy {
		t.Fatalf("resumed log not healthy: %+v (%v)", rep, err)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncNone, SyncRotate, SyncInterval} {
		dir := t.TempDir()
		dw, err := NewDirWriter(dir)
		if err != nil {
			t.Fatal(err)
		}
		dw.segmentBytes = 256
		dw.Sync = policy
		dw.syncBytes = 64
		for i := 0; i < 100; i++ {
			dw.Append(Event{Type: TypeImpression, Day: int32(i), Account: 1, Country: "US", Position: 1})
		}
		if err := dw.Close(); err != nil {
			t.Fatalf("policy %d: %v", policy, err)
		}
		if got := countEvents(t, dir); got != 100 {
			t.Fatalf("policy %d: %d events, want 100", policy, got)
		}
	}
}
