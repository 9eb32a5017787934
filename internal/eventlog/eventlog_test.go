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
	"testing"

	"repro/internal/simclock"
)

// sampleEvents exercises every type, negative days, interned strings
// repeated across records, and both clicked and unclicked impressions.
func sampleEvents() []Event {
	return []Event{
		{Type: TypeAccountCreated, Day: -40, Account: 1, At: -39.52, Country: "US", Vertical: 3, N: 0, Flags: FlagFraud | FlagStolenPayment},
		{Type: TypeReregistration, Day: -40, Account: 1, N: 2},
		{Type: TypeAccountCreated, Day: 0, Account: 2, At: 0.25, Country: "IN", Vertical: 1},
		{Type: TypeAdCreated, Day: 0, Account: 2, Vertical: 1},
		{Type: TypeAdModified, Day: 1, Account: 2},
		{Type: TypeBidPlaced, Day: 1, Account: 2, Match: 2, Amount: 1.5},
		{Type: TypeBidModified, Day: 2, Account: 2},
		{Type: TypeImpression, Day: 3, Account: 2, Vertical: 1, Country: "US", Position: 1, Match: 2, Flags: FlagFraud | FlagFraudComp},
		{Type: TypeImpression, Day: 3, Account: 1, Vertical: 3, Country: "US", Position: 4, Match: 0, Flags: FlagClicked, Amount: 0.73},
		{Type: TypeDetection, Day: 4, Account: 1, At: 4.99, Stage: 1, Reason: "daily batch review"},
	}
}

func writeLog(t *testing.T, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, ev := range events {
		w.Append(ev)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}
	if got := w.Events(); got != uint64(len(events)) {
		t.Fatalf("Events() = %d, want %d", got, len(events))
	}
	if got := w.Bytes(); got != uint64(buf.Len()) {
		t.Fatalf("Bytes() = %d, buffer has %d", got, buf.Len())
	}
	return buf.Bytes()
}

func readAll(r *Reader) ([]Event, error) {
	var out []Event
	var ev Event
	for {
		err := r.Next(&ev)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, ev)
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	events := sampleEvents()
	data := writeLog(t, events)
	got, err := readAll(NewReader(bytes.NewReader(data), Filter{}))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, events)
	}
}

func TestInterningShrinksRepeats(t *testing.T) {
	ev := Event{Type: TypeImpression, Day: 1, Account: 1, Country: "elbonia-south", Position: 1}
	var one, many bytes.Buffer
	w := NewWriter(&one)
	w.Append(ev)
	w2 := NewWriter(&many)
	for i := 0; i < 100; i++ {
		w2.Append(ev)
	}
	perExtra := (many.Len() - one.Len()) / 99
	// An interned repeat must cost a 1-byte ID, not the string bytes.
	if perExtra >= one.Len()-len(Magic) {
		t.Fatalf("repeat costs %d bytes, first record cost %d: interning not effective", perExtra, one.Len()-len(Magic))
	}
	got, err := readAll(NewReader(bytes.NewReader(many.Bytes()), Filter{}))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	for i, g := range got {
		if g.Country != ev.Country {
			t.Fatalf("record %d country = %q, want %q", i, g.Country, ev.Country)
		}
	}
}

func TestFilterByTypeAndWindow(t *testing.T) {
	data := writeLog(t, sampleEvents())
	imps, err := readAll(NewReader(bytes.NewReader(data), Filter{Types: TypeMask(TypeImpression)}))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(imps) != 2 {
		t.Fatalf("type filter returned %d events, want 2", len(imps))
	}
	for _, ev := range imps {
		if ev.Type != TypeImpression {
			t.Fatalf("type filter leaked %v", ev.Type)
		}
	}
	// Half-open window [0, 2) keeps days 0 and 1, drops warmup and later.
	windowed, err := readAll(NewReader(bytes.NewReader(data), Filter{From: 0, To: 2}))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	for _, ev := range windowed {
		if ev.Day < 0 || ev.Day >= 2 {
			t.Fatalf("window filter leaked day %d", ev.Day)
		}
	}
	if len(windowed) != 4 {
		t.Fatalf("window filter returned %d events, want 4", len(windowed))
	}
	// Filtering must not desync interning: the last matching record uses
	// an interned country first defined in a filtered-out record.
	late, err := readAll(NewReader(bytes.NewReader(data), Filter{From: 3, To: 5}))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(late) != 3 || late[0].Country != "US" {
		t.Fatalf("filtered read lost interned strings: %+v", late)
	}
}

func TestEmptyStreamIsCleanEOF(t *testing.T) {
	if _, err := readAll(NewReader(bytes.NewReader(nil), Filter{})); err != nil {
		t.Fatalf("empty stream: %v", err)
	}
	// A bare header with zero frames is also a valid empty log.
	if _, err := readAll(NewReader(bytes.NewReader(Magic[:]), Filter{})); err != nil {
		t.Fatalf("header-only stream: %v", err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	_, err := readAll(NewReader(bytes.NewReader([]byte("NOTLOG1xxxx")), Filter{}))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	data := writeLog(t, sampleEvents())

	t.Run("bit flip", func(t *testing.T) {
		// Flip a bit in every single byte position past the header; each
		// flip must surface as an error, never a panic.
		errs := 0
		for i := len(Magic); i < len(data); i++ {
			mut := bytes.Clone(data)
			mut[i] ^= 0x40
			if _, err := readAll(NewReader(bytes.NewReader(mut), Filter{})); err != nil {
				errs++
			}
		}
		if errs == 0 {
			t.Fatal("no bit flip was detected")
		}
	})

	t.Run("truncation", func(t *testing.T) {
		// Cut mid-frame: must error, not silently succeed or panic.
		cut := data[:len(data)-3]
		_, err := readAll(NewReader(bytes.NewReader(cut), Filter{}))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})

	t.Run("oversized frame", func(t *testing.T) {
		var buf bytes.Buffer
		buf.Write(Magic[:])
		frame := binary.AppendUvarint(nil, MaxFrame+1)
		buf.Write(frame)
		_, err := readAll(NewReader(&buf, Filter{}))
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
	})

	t.Run("trailing garbage in payload", func(t *testing.T) {
		var buf bytes.Buffer
		buf.Write(Magic[:])
		payload := []byte{byte(TypeAdModified), 0, 0, 0xFF} // extra byte
		buf.Write(binary.AppendUvarint(nil, uint64(len(payload))))
		buf.Write(payload)
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, castagnoli))
		buf.Write(crc[:])
		_, err := readAll(NewReader(&buf, Filter{}))
		if !errors.Is(err, ErrBadEvent) {
			t.Fatalf("err = %v, want ErrBadEvent", err)
		}
	})
}

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(failAfter{n: 1})
	w.Append(Event{Type: TypeAdModified, Day: 1, Account: 1})
	if w.Err() == nil {
		t.Fatal("expected header write failure")
	}
	for i := 0; i < 5; i++ {
		w.Append(Event{Type: TypeAdModified, Day: 1, Account: 1})
	}
	if got := w.Dropped(); got != 6 {
		t.Fatalf("Dropped() = %d, want 6", got)
	}
	if got := w.Events(); got != 0 {
		t.Fatalf("Events() = %d, want 0", got)
	}
}

// failAfter fails every write once n writes have been attempted.
type failAfter struct{ n int }

func (f failAfter) Write(p []byte) (int, error) {
	return 0, errors.New("synthetic write failure")
}

func TestUnknownTypeRejectedOnWrite(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append(Event{Type: Type(200)})
	if !errors.Is(w.Err(), ErrBadEvent) {
		t.Fatalf("Err() = %v, want ErrBadEvent", w.Err())
	}
}

// TestRetiredTypeRejected: value 9 was the shard cluster's day-end
// marker. It is retired, not reused: neither side of the codec accepts
// it, so a log from that era fails loudly instead of replaying a record
// nothing understands.
func TestRetiredTypeRejected(t *testing.T) {
	var dec decoder
	var ev Event
	if err := dec.decodeEvent([]byte{9, 0, 0}, &ev); !errors.Is(err, ErrBadEvent) {
		t.Errorf("decode of type 9 = %v, want ErrBadEvent", err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append(Event{Type: Type(9)})
	if !errors.Is(w.Err(), ErrBadEvent) {
		t.Errorf("append of type 9 = %v, want ErrBadEvent", w.Err())
	}
	if _, ok := ParseType("day-end"); ok {
		t.Error(`ParseType still resolves "day-end"`)
	}
}

func TestDirWriterRotation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	dw, err := NewDirWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	dw.segmentBytes = 256 // force frequent rotation
	var want []Event
	for i := 0; i < 200; i++ {
		ev := Event{Type: TypeImpression, Day: int32(i / 50), Account: int32(i % 7), Vertical: 2, Country: "US", Position: int32(i%8) + 1}
		dw.Append(ev)
		want = append(want, ev)
	}
	if err := dw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if dw.Events() != 200 {
		t.Fatalf("Events() = %d, want 200", dw.Events())
	}
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %v", segs)
	}
	// Every segment must be independently decodable (fresh intern table).
	var got []Event
	if err := ScanDir(dir, Filter{}, func(ev *Event) error {
		got = append(got, *ev)
		return nil
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("segmented round trip mismatch: %d events, want %d", len(got), len(want))
	}
	single, err := os.Open(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if _, err := readAll(NewReader(single, Filter{})); err != nil {
		t.Fatalf("segment %s not independently decodable: %v", segs[1], err)
	}
}

func TestDeterministicBytes(t *testing.T) {
	a := writeLog(t, sampleEvents())
	b := writeLog(t, sampleEvents())
	if !bytes.Equal(a, b) {
		t.Fatal("same events produced different bytes")
	}
}

func TestAsyncDropsWhenBlocked(t *testing.T) {
	block := make(chan struct{})
	slow := sinkFunc(func(Event) { <-block })
	a := NewAsync(slow, 4)
	for i := 0; i < 50; i++ {
		a.Append(Event{Type: TypeAdModified, Day: 1, Account: 1})
	}
	if a.Dropped() == 0 {
		t.Fatal("expected drops while destination is blocked")
	}
	close(block)
	a.Close()
	// Appending after Close drops instead of panicking.
	a.Append(Event{Type: TypeAdModified})
}

func TestAsyncDeliversAndDrains(t *testing.T) {
	var got SliceSink
	a := NewAsync(&got, 128)
	for _, ev := range sampleEvents() {
		a.Append(ev)
	}
	a.Close()
	if len(got.Events) != len(sampleEvents()) {
		t.Fatalf("delivered %d events, want %d", len(got.Events), len(sampleEvents()))
	}
}

type sinkFunc func(Event)

func (f sinkFunc) Append(ev Event) { f(ev) }

func TestParseTypeRoundTrip(t *testing.T) {
	for _, typ := range Types() {
		got, ok := ParseType(typ.String())
		if !ok || got != typ {
			t.Fatalf("ParseType(%q) = %v, %v", typ.String(), got, ok)
		}
	}
	if _, ok := ParseType("nonsense"); ok {
		t.Fatal("ParseType accepted nonsense")
	}
}

func TestFilterWindowUsesSimclockDays(t *testing.T) {
	f := Filter{From: simclock.Day(-10), To: simclock.Day(0)}
	if !f.Match(&Event{Type: TypeImpression, Day: -5}) {
		t.Fatal("warmup day -5 should match [-10, 0)")
	}
	if f.Match(&Event{Type: TypeImpression, Day: 0}) {
		t.Fatal("day 0 should not match half-open [-10, 0)")
	}
}
