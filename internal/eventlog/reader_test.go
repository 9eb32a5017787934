package eventlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/simclock"
)

// frameOf wraps a payload in its length prefix and CRC, valid or not.
func frameOf(payload []byte) []byte {
	b := binary.AppendUvarint(nil, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
}

// TestReaderConformance pins what the reader reports on damaged
// segments: the frames it decoded, the offset just past the last good
// one, and the error text. RecoverDir's segment reports and logtool's
// verify lines are built from exactly these three values, so the table
// is their contract too. Each segment is ten good frames (sampleEvents)
// followed by the damage, unless the case says otherwise.
func TestReaderConformance(t *testing.T) {
	good := writeLog(t, sampleEvents())
	n := int64(len(good)) // offset of the damage in a damaged tail
	last := frameOf([]byte{byte(TypeAdModified), 2, 4})
	tail := func(b ...[]byte) []byte {
		out := bytes.Clone(good)
		for _, p := range b {
			out = append(out, p...)
		}
		return out
	}
	flipped := bytes.Clone(last)
	flipped[2] ^= 0x01
	cases := []struct {
		name   string
		data   []byte
		frames uint64
		offset int64
		err    string // "" for a clean end of stream
	}{
		{"clean", tail(last), 11, n + int64(len(last)), ""},
		{"empty file", nil, 0, 0, ""},
		{"header only", Magic[:], 0, 6, ""},
		{"cut magic", Magic[:3], 0, 0, "eventlog: bad segment magic: unexpected EOF"},
		{"wrong magic", []byte("EVLOG\x02"), 0, 0, "eventlog: bad segment magic"},
		{"varint cut mid-byte", tail([]byte{0x80}), 10, n,
			"eventlog: truncated frame at offset 174: unexpected EOF"},
		{"varint overflow", tail(bytes.Repeat([]byte{0xff}, 11)), 10, n,
			"eventlog: truncated frame at offset 174: binary: varint overflows a 64-bit integer"},
		{"size over MaxFrame", tail(binary.AppendUvarint(nil, MaxFrame+1)), 10, n,
			"eventlog: frame exceeds MaxFrame: 65537 bytes at offset 174"},
		{"payload short by one byte", tail(last[:len(last)-1]), 10, n,
			"eventlog: truncated frame at offset 174: unexpected EOF"},
		{"payload cut entirely", tail(last[:1]), 10, n,
			"eventlog: truncated frame at offset 174: EOF"},
		{"CRC flip", tail(flipped), 10, n,
			"eventlog: frame CRC mismatch at offset 174"},
		{"unknown type", tail(frameOf([]byte{200, 0, 0})), 10, n,
			"eventlog: malformed event payload: unknown type 200 at offset 174"},
		{"retired type", tail(frameOf([]byte{9, 0, 0})), 10, n,
			"eventlog: malformed event payload: unknown type 9 at offset 174"},
		{"trailing garbage", tail(frameOf([]byte{byte(TypeAdModified), 0, 0, 0xff})), 10, n,
			"eventlog: malformed event payload: 1 trailing bytes at offset 174"},
		{"int32 overflow", tail(frameOf(append([]byte{byte(TypeAdModified)}, binary.AppendUvarint(nil, zigzag(1<<31))...))), 10, n,
			"eventlog: malformed event payload: value 2147483648 overflows int32 at offset 174"},
		{"intern ref beyond table", tail(frameOf([]byte{byte(TypeImpression), 0, 0, 0, 5})), 10, n,
			"eventlog: malformed event payload: intern ref 5 beyond table of 3 at offset 174"},
		{"payload cut inside a field", tail(frameOf([]byte{byte(TypeBidPlaced), 0, 0, 1, 0, 0})), 10, n,
			"eventlog: malformed event payload at offset 174"},
	}
	dir := t.TempDir()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewReader(bytes.NewReader(c.data), Filter{})
			var ev Event
			var err error
			for err == nil {
				err = r.Next(&ev)
			}
			got := ""
			if err != io.EOF {
				got = err.Error()
			}
			if r.Frames() != c.frames || r.Offset() != c.offset || got != c.err {
				t.Errorf("Reader: (%d, %d, %q), want (%d, %d, %q)", r.Frames(), r.Offset(), got, c.frames, c.offset, c.err)
			}

			// ScanFiles reports the same damage after the same events,
			// prefixed with the segment's path.
			path := filepath.Join(dir, "events-00000.evlog")
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			var seen uint64
			err = ScanFiles([]string{path}, Filter{}, func(*Event) error { seen++; return nil })
			want := ""
			if c.err != "" {
				want = path + ": " + c.err
			}
			if got := errText(err); seen != c.frames || got != want {
				t.Errorf("ScanFiles: %d events, %q; want %d, %q", seen, got, c.frames, want)
			}
		})
	}
}

// TestReaderOffsetCountsSizeBytesRead: a frame whose size is written in
// more bytes than it needs (the writer never does this) still moves the
// offset by the bytes it occupies, so truncating there keeps it whole.
func TestReaderOffsetCountsSizeBytesRead(t *testing.T) {
	payload := []byte{byte(TypeAdModified), 0, 0}
	data := append(bytes.Clone(Magic[:]), 0x83, 0x00) // 3 as a two-byte varint
	data = append(data, payload...)
	data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(payload, castagnoli))
	r := NewReader(bytes.NewReader(data), Filter{})
	var ev Event
	if err := r.Next(&ev); err != nil {
		t.Fatal(err)
	}
	if err := r.Next(&ev); err != io.EOF {
		t.Fatalf("second Next = %v, want EOF", err)
	}
	if r.Offset() != int64(len(data)) {
		t.Fatalf("Offset() = %d, want %d", r.Offset(), len(data))
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// scanSegments writes each segment to its own file in dir and returns
// the paths in order.
func scanSegments(t testing.TB, dir string, segs [][]byte) []string {
	var paths []string
	for i, s := range segs {
		p := filepath.Join(dir, "events-"+string(rune('a'+i))+".evlog")
		if err := os.WriteFile(p, s, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

// readSegments is ScanFiles without the pipeline: a plain Reader.Next
// loop over each file.
func readSegments(paths []string, filter Filter) ([]Event, error) {
	var out []Event
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return out, err
		}
		evs, err := readAll(NewReader(bytes.NewReader(data), filter))
		out = append(out, evs...)
		if err != nil {
			return out, errors.New(p + ": " + err.Error())
		}
	}
	return out, nil
}

// corpusSegment encodes n events cycled from corpusEvents, fifty a day.
func corpusSegment(tb testing.TB, n int) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < n; i++ {
		ev := corpusEvents()[i%len(corpusEvents())]
		ev.Day = int32(i / 50)
		w.Append(ev)
	}
	if w.Err() != nil {
		tb.Fatal(w.Err())
	}
	return buf.Bytes()
}

// FuzzScanFiles: the pipelined ScanFiles yields exactly the events, in
// order, and the error that a plain Reader.Next loop over the same
// files yields. A fixed valid segment fills all but the last few slots
// of the first batch, so the three segments cut from the fuzzed bytes
// that follow it cross a batch boundary, and damage can land on either
// side of it. The filter is fuzzed too. The fuzzed log stays small, so
// the fuzzer's minimization of a new input takes seconds, not minutes.
func FuzzScanFiles(f *testing.F) {
	valid := corpusSegment(f, 40)
	f.Add(valid, uint16(0), uint16(0), uint64(0), int32(0), int32(0))
	f.Add(valid, uint16(len(valid)), uint16(0), uint64(0), int32(2), int32(9))
	f.Add(valid, uint16(len(valid)-3), uint16(len(valid)), TypeMask(TypeImpression), int32(0), int32(0))
	corrupt := bytes.Clone(valid)
	corrupt[len(valid)*2/3] ^= 0x10
	f.Add(corrupt, uint16(len(valid)), uint16(len(valid)), uint64(0), int32(0), int32(0))
	// Executions in one process run one at a time, so they share a
	// directory and overwrite its files.
	dir := f.TempDir()
	lead := filepath.Join(dir, "events-lead.evlog")
	if err := os.WriteFile(lead, corpusSegment(f, scanBatch-5), 0o644); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, cut1, cut2 uint16, types uint64, from, to int32) {
		a, b := min(int(cut1), len(data)), min(int(cut2), len(data))
		paths := append([]string{lead}, scanSegments(t, dir, [][]byte{data, data[:a], data[:b]})...)
		filter := Filter{Types: types, From: simclock.Day(from), To: simclock.Day(to)}

		want, wantErr := readSegments(paths, filter)
		var got []Event
		err := ScanFiles(paths, filter, func(ev *Event) error {
			got = append(got, *ev)
			return nil
		})
		if errText(err) != errText(wantErr) {
			t.Fatalf("ScanFiles error %q, Reader loop %q", errText(err), errText(wantErr))
		}
		if len(got) != len(want) {
			t.Fatalf("ScanFiles yielded %d events, Reader loop %d", len(got), len(want))
		}
		// Compare encodings, not structs: a NaN amount is not equal to
		// itself. The two encoders see the same strings in the same
		// order, so their intern tables agree while the events do.
		genc, wenc := newEncoder(), newEncoder()
		var ge, we []byte
		for i := range got {
			ge, _ = genc.appendEvent(ge[:0], &got[i])
			we, _ = wenc.appendEvent(we[:0], &want[i])
			if !bytes.Equal(ge, we) || got[i].Country != want[i].Country || got[i].Reason != want[i].Reason {
				t.Fatalf("event %d: ScanFiles %+v, Reader loop %+v", i, got[i], want[i])
			}
		}
	})
}

// TestScanFilesStopsAtCallbackError: when fn fails at event k, ScanFiles
// returns that error after exactly k calls, and the decoding goroutine
// is gone by the time it returns.
func TestScanFilesStopsAtCallbackError(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const total = 5*scanBatch + 3
	for i := 0; i < total; i++ {
		w.Append(Event{Type: TypeImpression, Day: int32(i), Account: int32(i % 5), Country: "US", Position: 1})
	}
	dir := t.TempDir()
	paths := scanSegments(t, dir, [][]byte{buf.Bytes(), buf.Bytes()})
	stop := errors.New("stop")
	base := runtime.NumGoroutine()
	for _, k := range []int{1, scanBatch, scanBatch + 1, total, total + 2*scanBatch} {
		calls := 0
		err := ScanFiles(paths, Filter{}, func(ev *Event) error {
			calls++
			if want := int32((calls - 1) % total); ev.Day != want {
				t.Fatalf("call %d saw day %d, want %d", calls, ev.Day, want)
			}
			if calls == k {
				return stop
			}
			return nil
		})
		if err != stop || calls != k {
			t.Errorf("k=%d: ScanFiles = %v after %d calls, want %v after %d", k, err, calls, stop, k)
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("k=%d: %d goroutines after ScanFiles returned, %d before", k, n, base)
		}
	}
	// A full scan also ends its goroutine.
	if err := ScanFiles(paths, Filter{}, func(*Event) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines after a full scan, %d before", n, base)
	}
}

// settledGoroutines returns the goroutine count once it is at most
// base, or after a second of waiting for it to get there.
func settledGoroutines(base int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScanFilesOrderAcrossBatches: events reach fn in log order across
// batch and segment boundaries, and a filtered scan sees the matching
// subsequence.
func TestScanFilesOrderAcrossBatches(t *testing.T) {
	var want []Event
	var segs [][]byte
	for s := 0; s < 3; s++ {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i := 0; i < 2*scanBatch+s; i++ {
			ev := sampleEvents()[i%len(sampleEvents())]
			ev.Day = int32(len(want))
			w.Append(ev)
			want = append(want, ev)
		}
		segs = append(segs, buf.Bytes())
	}
	paths := scanSegments(t, t.TempDir(), segs)
	for _, filter := range []Filter{{}, {Types: TypeMask(TypeImpression, TypeDetection)}, {From: 100, To: 700}} {
		var got, match []Event
		if err := ScanFiles(paths, filter, func(ev *Event) error {
			got = append(got, *ev)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if filter.Match(&want[i]) {
				match = append(match, want[i])
			}
		}
		if !reflect.DeepEqual(got, match) {
			t.Fatalf("filter %+v: %d events, want %d in log order", filter, len(got), len(match))
		}
	}
}
