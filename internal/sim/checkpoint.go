package sim

// Checkpoint file format. A checkpoint is one CRC-framed gob payload:
//
//	offset 0: magic "FRSNAP" + one format-version byte (currently 3;
//	          version 3 stores the platform flat — accounts and ads as
//	          value rows with per-parent counts, bids and index
//	          references as one primitive column per field, see
//	          platform.Snapshot — which an older reader would not
//	          recognise at all; older files are refused by the version
//	          check, there is no migration)
//	then:     uvarint payload length | payload | crc32c(payload) LE
//
// The payload is one gob stream: the Checkpoint value with its platform
// snapshot detached, then the platform as platform.Snapshot.Encode
// writes it. Everything outside the platform — collector, pipeline,
// agents, RNG streams — is a few percent of the bytes and stays ordinary
// gob structs.
//
// The CRC is computed with the Castagnoli polynomial — the same framing
// discipline as the event log — so a torn or bit-flipped snapshot is
// detected before gob ever sees it. Writes are atomic: the file is
// staged at a temporary name, fsynced, then renamed over the target, so
// a crash during checkpointing leaves the previous checkpoint intact.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/eventlog"
	"repro/internal/platform"
)

// checkpointMagic identifies a checkpoint file; the trailing byte is the
// format version.
var checkpointMagic = []byte{'F', 'R', 'S', 'N', 'A', 'P', 3}

var checkpointCRC = crc32.MakeTable(crc32.Castagnoli)

// LogPosition records where the event log stood when a checkpoint was
// taken: the index of the segment the resumed run will open next, and the
// number of events written so far (a cheap cross-check for diagnostics).
// Checkpointing forces a segment rotation first, so the snapshot always
// aligns with a segment boundary and resuming never has to re-enter a
// half-written segment (whose intern table could not be reconstructed).
type LogPosition struct {
	NextSegment int
	Events      uint64
}

// Checkpoint pairs a sim snapshot with the event-log position it is
// consistent with.
type Checkpoint struct {
	State *State
	Log   LogPosition
}

// frameHead is the space encodeCheckpoint reserves ahead of the payload
// for the magic and the length, whose width is known only once the
// payload is encoded.
var frameHead = len(checkpointMagic) + binary.MaxVarintLen64

// encodeCheckpoint renders a checkpoint into buf as its on-disk frame —
// magic, version, uvarint payload length, gob payload, CRC32C — and
// returns the frame, which aliases buf.
func encodeCheckpoint(buf *bytes.Buffer, c *Checkpoint) ([]byte, error) {
	if c == nil || c.State == nil || c.State.Platform == nil {
		return nil, fmt.Errorf("sim: nil checkpoint")
	}
	buf.Reset()
	buf.Write(make([]byte, frameHead))
	st := *c.State
	st.Platform = nil
	enc := gob.NewEncoder(buf)
	err := enc.Encode(&Checkpoint{State: &st, Log: c.Log})
	if err == nil {
		err = c.State.Platform.Encode(enc)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: encode checkpoint: %w", err)
	}
	n := buf.Len() - frameHead
	buf.Write(binary.LittleEndian.AppendUint32(nil, crc32.Checksum(buf.Bytes()[frameHead:], checkpointCRC)))
	// The head goes in right-aligned against the payload; the frame
	// starts wherever that leaves it.
	var lenBuf [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(lenBuf[:], uint64(n))
	frame := buf.Bytes()[binary.MaxVarintLen64-w:]
	copy(frame, checkpointMagic)
	copy(frame[len(checkpointMagic):], lenBuf[:w])
	return frame, nil
}

// stageCheckpoint encodes c through buf and writes it, fsynced, to path.
func stageCheckpoint(buf *bytes.Buffer, path string, c *Checkpoint) error {
	frame, err := encodeCheckpoint(buf, c)
	if err != nil {
		return err
	}
	return eventlog.StageFile(path, frame, true)
}

// WriteCheckpoint atomically writes a checkpoint file.
func WriteCheckpoint(path string, c *Checkpoint) error {
	return writeCheckpoint(new(bytes.Buffer), path, c)
}

func writeCheckpoint(buf *bytes.Buffer, path string, c *Checkpoint) error {
	tmp := path + eventlog.TmpSuffix
	if err := stageCheckpoint(buf, tmp, c); err != nil {
		return err
	}
	return eventlog.CommitFile(tmp, path, true)
}

// ReadCheckpoint reads and validates a checkpoint file: magic, version,
// declared length, and CRC are all checked before gob decoding, and the
// decode itself is guarded so hostile bytes yield an error, never a
// panic.
func ReadCheckpoint(path string) (c *Checkpoint, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(data)
}

// DecodeCheckpoint validates and decodes checkpoint bytes (the body of
// ReadCheckpoint, split out for fuzzing).
func DecodeCheckpoint(data []byte) (c *Checkpoint, err error) {
	if len(data) < len(checkpointMagic) || !bytes.Equal(data[:len(checkpointMagic)-1], checkpointMagic[:len(checkpointMagic)-1]) {
		return nil, fmt.Errorf("sim: not a checkpoint file")
	}
	if v := data[len(checkpointMagic)-1]; v != checkpointMagic[len(checkpointMagic)-1] {
		return nil, fmt.Errorf("sim: unsupported checkpoint version %d", v)
	}
	rest := data[len(checkpointMagic):]
	n, size := binary.Uvarint(rest)
	if size <= 0 {
		return nil, fmt.Errorf("sim: corrupt checkpoint length")
	}
	rest = rest[size:]
	if n > uint64(len(rest)) {
		return nil, fmt.Errorf("sim: checkpoint truncated: declares %d payload bytes, has %d", n, len(rest))
	}
	payload := rest[:n]
	tail := rest[n:]
	if len(tail) < 4 {
		return nil, fmt.Errorf("sim: checkpoint missing CRC")
	}
	want := binary.LittleEndian.Uint32(tail[:4])
	if got := crc32.Checksum(payload, checkpointCRC); got != want {
		return nil, fmt.Errorf("sim: checkpoint CRC mismatch: %08x != %08x", got, want)
	}
	defer func() {
		if r := recover(); r != nil {
			c, err = nil, fmt.Errorf("sim: checkpoint decode panicked: %v", r)
		}
	}()
	c = &Checkpoint{}
	dec := gob.NewDecoder(bytes.NewReader(payload))
	if err := dec.Decode(c); err != nil {
		return nil, fmt.Errorf("sim: decode checkpoint: %w", err)
	}
	if c.State == nil {
		return nil, fmt.Errorf("sim: checkpoint has no state")
	}
	c.State.Platform = new(platform.Snapshot)
	if err := c.State.Platform.Decode(dec); err != nil {
		return nil, fmt.Errorf("sim: decode checkpoint platform: %w", err)
	}
	if c.Log.NextSegment < 0 {
		return nil, fmt.Errorf("sim: checkpoint has negative segment index %d", c.Log.NextSegment)
	}
	return c, nil
}

// WriteCheckpointFile snapshots the sim and writes it with the given log
// position in one call.
func (s *Sim) WriteCheckpointFile(path string, pos LogPosition) error {
	return writeCheckpoint(&s.frame, path, &Checkpoint{State: s.Snapshot(), Log: pos})
}

// CheckpointInfo is what InspectCheckpoint can say about a checkpoint
// file without a debugger: the header facts plus, when the file
// validates, the snapshot's cursor and run shape.
type CheckpointInfo struct {
	Path    string
	Bytes   int64
	Version int // format version byte from the header (-1 if not a checkpoint at all)

	// Valid is true when magic, version, length, CRC, and gob decode all
	// passed; the fields below it are meaningful only then. Err holds
	// the validation failure otherwise.
	Valid bool
	Err   string

	Day   int
	Phase string
	Log   LogPosition
	Seed  uint64
	Days  int
}

// InspectCheckpoint reads a checkpoint file for triage: it never
// panics, and unlike ReadCheckpoint it returns as much as it can about
// an invalid file (size, claimed version, failure reason) instead of
// just an error. The returned error is reserved for I/O failures; a
// corrupt file comes back with Valid == false.
func InspectCheckpoint(path string) (*CheckpointInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	info := &CheckpointInfo{Path: path, Bytes: int64(len(data)), Version: -1}
	if len(data) >= len(checkpointMagic) && bytes.Equal(data[:len(checkpointMagic)-1], checkpointMagic[:len(checkpointMagic)-1]) {
		info.Version = int(data[len(checkpointMagic)-1])
	}
	c, err := DecodeCheckpoint(data)
	if err != nil {
		info.Err = err.Error()
		return info, nil
	}
	info.Valid = true
	info.Day = int(c.State.Day)
	info.Phase = c.State.Phase.String()
	info.Log = c.Log
	info.Seed = c.State.Config.Seed
	info.Days = int(c.State.Config.Days)
	return info, nil
}
