package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/eventlog"
)

// writeSampleLog writes a small two-segment log and returns its
// directory. 30 impressions across days 0..9, one account record, one
// detection.
func writeSampleLog(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "events")
	dw, err := eventlog.NewDirWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	dw.Append(eventlog.Event{
		Type: eventlog.TypeAccountCreated, Day: -3, Account: 1, At: -2.7,
		Country: "US", Vertical: 2, Flags: eventlog.FlagFraud,
	})
	for i := 0; i < 30; i++ {
		if i%10 == 0 {
			dw.Rotate() // several segments
		}
		ev := eventlog.Event{
			Type: eventlog.TypeImpression, Day: int32(i % 10), Account: 1,
			Country: "US", Vertical: 2, Position: int32(i%3 + 1),
		}
		if i%5 == 0 {
			ev.Flags = eventlog.FlagClicked
			ev.Amount = 0.75
		}
		dw.Append(ev)
	}
	dw.Append(eventlog.Event{
		Type: eventlog.TypeDetection, Day: 9, Account: 1, At: 9.5,
		Stage: 1, Reason: "registration screening",
	})
	if err := dw.Close(); err != nil {
		t.Fatalf("close log: %v", err)
	}
	segs, err := eventlog.Segments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want a multi-segment log, got %v (%v)", segs, err)
	}
	return dir
}

func TestStatReportsCountsAndRange(t *testing.T) {
	dir := writeSampleLog(t)
	var out, errw strings.Builder
	if err := run([]string{"stat", dir}, &out, &errw); err != nil {
		t.Fatalf("stat: %v (stderr: %s)", err, errw.String())
	}
	for _, want := range []string{
		"events    32", "days      -3..9",
		"account-created", "impression", "detection",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stat output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "bid-placed") {
		t.Errorf("stat lists a type with zero records:\n%s", out.String())
	}
}

func TestCatJSONWithFilters(t *testing.T) {
	dir := writeSampleLog(t)
	var out, errw strings.Builder
	err := run([]string{"cat", "-json", "-type", "impression", "-from", "2", "-to", "4", dir}, &out, &errw)
	if err != nil {
		t.Fatalf("cat: %v (stderr: %s)", err, errw.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 6 { // days 2 and 3, three impressions each
		t.Fatalf("got %d records, want 6:\n%s", len(lines), out.String())
	}
	for _, line := range lines {
		var rec struct {
			Type    string `json:"type"`
			Day     int32  `json:"day"`
			Country string `json:"country"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSON line %q: %v", line, err)
		}
		if rec.Type != "impression" || rec.Day < 2 || rec.Day >= 4 || rec.Country != "US" {
			t.Errorf("record escaped the filter: %+v", rec)
		}
	}
}

func TestCatTextOutput(t *testing.T) {
	dir := writeSampleLog(t)
	var out, errw strings.Builder
	if err := run([]string{"cat", "-type", "detection", dir}, &out, &errw); err != nil {
		t.Fatalf("cat: %v", err)
	}
	got := strings.TrimSpace(out.String())
	if !strings.Contains(got, "detection") || !strings.Contains(got, `"registration screening"`) {
		t.Errorf("text output: %q", got)
	}
	if n := len(strings.Split(got, "\n")); n != 1 {
		t.Errorf("got %d lines, want 1", n)
	}
}

func TestVerifyCleanAndCorrupt(t *testing.T) {
	dir := writeSampleLog(t)
	var out, errw strings.Builder
	if err := run([]string{"verify", dir}, &out, &errw); err != nil {
		t.Fatalf("verify clean log: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "CORRUPT") {
		t.Fatalf("clean log reported corrupt:\n%s", out.String())
	}

	// Flip one byte in the middle of the first segment: verify must name
	// the damaged file, keep checking the rest, and fail overall.
	segs, err := eventlog.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	err = run([]string{"verify", dir}, &out, &errw)
	if err == nil {
		t.Fatalf("verify accepted a corrupted segment:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "1 of") {
		t.Errorf("error does not count damage: %v", err)
	}
	if !strings.Contains(out.String(), segs[0]+": CORRUPT") {
		t.Errorf("damaged segment not named:\n%s", out.String())
	}
	// The untouched later segments still verify.
	if !strings.Contains(out.String(), segs[1]+": ok") {
		t.Errorf("intact segment not reported ok:\n%s", out.String())
	}
}

func TestVerifyReportsLastValidOffset(t *testing.T) {
	dir := writeSampleLog(t)
	segs, err := eventlog.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail of the last segment mid-frame, the way an in-place
	// writer dies: the file ends two bytes short of a complete frame.
	last := segs[len(segs)-1]
	b, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, b[:len(b)-2], 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errw strings.Builder
	if err := run([]string{"verify", dir}, &out, &errw); err == nil {
		t.Fatalf("verify accepted a torn tail:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "last valid byte offset") {
		t.Errorf("verify does not report the truncation point:\n%s", out.String())
	}

	// -q suppresses the ok lines but still names the damage.
	out.Reset()
	run([]string{"verify", "-q", dir}, &out, &errw)
	if strings.Contains(out.String(), ": ok") {
		t.Errorf("-q still prints clean segments:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "CORRUPT") {
		t.Errorf("-q hides the damage:\n%s", out.String())
	}
}

// readDirBytes snapshots every file in dir by name for byte-identity
// comparisons.
func readDirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		m[e.Name()] = string(b)
	}
	return m
}

func TestRepairTornTail(t *testing.T) {
	// Build a crash-shaped log: abandon the DirWriter without Close so
	// the active segment survives only as a .tmp, then tear its tail.
	dir := filepath.Join(t.TempDir(), "events")
	dw, err := eventlog.NewDirWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if i%8 == 0 {
			dw.Rotate()
		}
		dw.Append(eventlog.Event{Type: eventlog.TypeImpression, Day: int32(i), Account: 7, Country: "US"})
	}
	if err := dw.Flush(); err != nil {
		t.Fatal(err)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "events-*.evlog.tmp"))
	if err != nil || len(tmps) != 1 {
		t.Fatalf("want one unsealed tail, got %v (%v)", tmps, err)
	}
	b, err := os.ReadFile(tmps[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmps[0], b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	// Dry run: reports the repair, exits non-zero, changes nothing.
	before := readDirBytes(t, dir)
	var out, errw strings.Builder
	err = run([]string{"repair", "-dry-run", dir}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "need repair") {
		t.Fatalf("dry run on torn log: err=%v\n%s", err, out.String())
	}
	if got := readDirBytes(t, dir); len(got) != len(before) {
		t.Fatalf("dry run changed the directory: %v -> %v", before, got)
	} else {
		for name, data := range before {
			if got[name] != data {
				t.Fatalf("dry run modified %s", name)
			}
		}
	}

	// Real repair: truncates the tail, finalizes the segment, and the
	// log then verifies clean with one torn event dropped.
	out.Reset()
	if err := run([]string{"repair", dir}, &out, &errw); err != nil {
		t.Fatalf("repair: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "truncated") || !strings.Contains(out.String(), "finalized") {
		t.Errorf("repair output missing actions:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"verify", dir}, &out, &errw); err != nil {
		t.Fatalf("verify after repair: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := run([]string{"stat", dir}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "events    39") {
		t.Errorf("want 39 surviving events after dropping the torn frame:\n%s", out.String())
	}

	// A second repair finds nothing to do.
	out.Reset()
	if err := run([]string{"repair", "-dry-run", dir}, &out, &errw); err != nil {
		t.Fatalf("repaired log still reports damage: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "healthy") {
		t.Errorf("repaired log not reported healthy:\n%s", out.String())
	}
}

func TestVerifyAcceptsSingleFile(t *testing.T) {
	dir := writeSampleLog(t)
	segs, err := eventlog.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out, errw strings.Builder
	if err := run([]string{"verify", segs[0]}, &out, &errw); err != nil {
		t.Fatalf("verify single segment: %v", err)
	}
}

// TestVerifyRejectsRetiredDayEndFrame: wire type 9 was the shard
// cluster's day-end marker and is retired. A log from that era — here a
// well-framed, CRC-valid type-9 record appended to a healthy segment —
// must fail verify as an unknown type, at the offset where the intact
// frames end.
func TestVerifyRejectsRetiredDayEndFrame(t *testing.T) {
	dir := writeSampleLog(t)
	segs, err := eventlog.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{9, 0, 0} // type 9, day 0, account 0
	frame := append([]byte{byte(len(payload))}, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out, errw strings.Builder
	if err := run([]string{"verify", dir}, &out, &errw); err == nil {
		t.Fatalf("verify accepted a type-9 frame:\n%s", out.String())
	}
	for _, want := range []string{last + ": CORRUPT", "unknown type 9", fmt.Sprintf("last valid byte offset %d", fi.Size())} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("verify output missing %q:\n%s", want, out.String())
		}
	}
}

func TestBadInvocations(t *testing.T) {
	dir := writeSampleLog(t)
	var out, errw strings.Builder
	cases := [][]string{
		{},                                      // no command
		{"frobnicate", dir},                     // unknown command
		{"stat"},                                // no paths
		{"stat", filepath.Join(dir, "missing")}, // nonexistent path
		{"stat", t.TempDir()},                   // directory without segments
		{"cat", "-type", "nope", dir},           // unknown type name
	}
	for _, args := range cases {
		if err := run(args, &out, &errw); err == nil {
			t.Errorf("run(%q) succeeded, want error", args)
		}
	}
}
