package eventlog

// Fuzz targets for the binary log format. The decoder sits behind
// logtool and the replay analytics, where it faces half-written
// segments, disk corruption, and arbitrary files handed to `logtool
// cat`. Whatever the bytes, it must return an error — never panic,
// never allocate beyond the format bounds. The seed corpus is built
// programmatically: valid payloads and segments for every event type,
// plus truncations, bit flips, and hostile length prefixes.

import (
	"bytes"
	"io"
	"testing"
)

// corpusEvents covers every type, both impression encodings, interned
// string reuse, and negative (warmup) days.
func corpusEvents() []Event {
	return []Event{
		{Type: TypeAccountCreated, Day: -30, Account: 1, At: -29.5, Country: "US", Vertical: 3, N: 2, Flags: FlagFraud | FlagStolenPayment},
		{Type: TypeReregistration, Day: 4, Account: 9, N: 1},
		{Type: TypeAdCreated, Day: 5, Account: 9, Vertical: 3},
		{Type: TypeAdModified, Day: 6, Account: 9},
		{Type: TypeBidPlaced, Day: 6, Account: 9, Match: 2, Amount: 1.25},
		{Type: TypeBidModified, Day: 7, Account: 9},
		{Type: TypeImpression, Day: 8, Account: 9, Vertical: 3, Country: "US", Position: 1, Match: 1, Flags: FlagClicked | FlagFraud, Amount: 0.4},
		{Type: TypeImpression, Day: 8, Account: 9, Vertical: 3, Country: "DE", Position: 4, Match: 0},
		{Type: TypeDetection, Day: 9, Account: 9, At: 9.9, Stage: 3, Reason: "rate anomaly"},
	}
}

// FuzzDecodeFrame throws arbitrary bytes at the payload decoder: it
// must either decode cleanly (and then re-encode to the same semantic
// event) or fail with an error — never panic.
func FuzzDecodeFrame(f *testing.F) {
	enc := newEncoder()
	for _, ev := range corpusEvents() {
		payload, err := enc.appendEvent(nil, &ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		// Mutations: truncation, a flipped type byte, hostile lengths.
		f.Add(payload[:len(payload)/2])
		flipped := append([]byte(nil), payload...)
		flipped[0] ^= 0xff
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{9, 0, 0}) // the retired day-end marker: type 9, day 0, account 0
	f.Add([]byte{byte(TypeDetection), 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 1, 0, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var dec decoder
		var ev Event
		if err := dec.decodeEvent(payload, &ev); err != nil {
			return
		}
		// A payload the decoder accepts must round-trip through the
		// encoder back to an accepting decode of the same event.
		enc := newEncoder()
		reenc, err := enc.appendEvent(nil, &ev)
		if err != nil {
			t.Fatalf("decoded event does not re-encode: %v (%+v)", err, ev)
		}
		var dec2 decoder
		var ev2 Event
		if err := dec2.decodeEvent(reenc, &ev2); err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		// Compare via canonical bytes, not struct equality: floats may
		// legitimately carry NaN payloads, where ev != ev itself.
		reenc2, err := newEncoder().appendEvent(nil, &ev2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reenc, reenc2) {
			t.Fatalf("round trip diverged:\n%x\n%x", reenc, reenc2)
		}
	})
}

// FuzzReadLog streams arbitrary bytes through the segment reader: every
// outcome is a clean EOF or an error, with the number of events bounded
// by what the input could possibly frame.
func FuzzReadLog(f *testing.F) {
	// A valid two-record segment and mutations of it.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, ev := range corpusEvents() {
		w.Append(ev)
	}
	if w.Err() != nil {
		f.Fatal(w.Err())
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                                                // torn final frame
	f.Add(valid[:len(Magic)])                                                  // header only
	f.Add([]byte{})                                                            // empty file
	f.Add([]byte("EVLOG\x02rest"))                                             // wrong version byte
	f.Add(append(append([]byte{}, Magic[:]...), 0xff, 0xff, 0xff, 0xff, 0x7f)) // huge frame length
	corrupt := append([]byte(nil), valid...)
	corrupt[len(valid)/2] ^= 0x10
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data), Filter{})
		var ev Event
		for {
			err := r.Next(&ev)
			if err == io.EOF {
				break
			}
			if err != nil {
				return
			}
			if ev.Type == 0 || ev.Type >= numTypes {
				t.Fatalf("reader surfaced invalid type %d", ev.Type)
			}
		}
		// Clean EOF: every decoded frame cost at least 3 bytes (length
		// prefix + type + CRC can't be smaller), bounding frames by input
		// size — a runaway reader would loop or fabricate records.
		if max := uint64(len(data)); r.Frames() > max {
			t.Fatalf("%d frames from %d input bytes", r.Frames(), len(data))
		}
	})
}
