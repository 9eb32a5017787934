package sim

// Checkpoint file format. A checkpoint is one CRC-framed payload:
//
//	offset 0: magic "FRSNAP" + one format-version byte (currently 5,
//	          platform.ColumnsVersion: the platform in a hand-written
//	          column codec, see platform/columns.go, which since version
//	          5 stores nothing the platform can recount; older files are
//	          refused by the version check, there is no migration)
//	then:     uvarint payload length | payload | crc32c(payload) LE
//
// The payload is one gob value — the Checkpoint, whose State carries the
// platform in no gob field — followed by the platform's columns.
// Everything outside the platform — collector, pipeline, agents, RNG
// streams — is a few percent of the bytes and stays ordinary gob structs.
//
// A Sim saving itself writes the columns straight from its live platform
// in two halves (platform.AppendTables and AppendIndex) that read
// disjoint state. The index half runs on a goroutine of its own while the
// gob and the tables half run on the caller's, each into its own reused
// buffer, and the halves are concatenated in wire order. The bytes are the
// same as platform.Snapshot.AppendColumns writes for a saved Checkpoint.
// A load decodes the columns straight into a live platform
// (platform.DecodeColumns), which checks them on the way.
//
// The CRC is computed with the Castagnoli polynomial — the same framing
// discipline as the event log — so a torn or bit-flipped snapshot is
// detected before any decoder sees it. Writes are atomic: the file is
// staged at a temporary name, fsynced, then renamed over the target, so
// a crash during checkpointing leaves the previous checkpoint intact.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"repro/internal/eventlog"
	"repro/internal/platform"
)

// checkpointMagic identifies a checkpoint file; the trailing byte is the
// format version, the platform column codec's.
var checkpointMagic = []byte{'F', 'R', 'S', 'N', 'A', 'P', platform.ColumnsVersion}

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

// frameHead is the space a frame reserves ahead of the payload for the
// magic and the length, whose width is known only once the payload is
// encoded.
var frameHead = len(checkpointMagic) + binary.MaxVarintLen64

// checkpointBufs is a checkpoint encode's memory: the frame, the index
// half's own buffer, the platform writer's scratch, the state the gob
// half encodes and the gob encoder itself. A Sim keeps one between saves
// (a frame is megabytes and a durable run writes one every few days).
type checkpointBufs struct {
	frame frameWriter
	index []byte
	cols  platform.ColumnScratch
	state State

	// enc is primed once: its first Encode sends gob's type descriptors,
	// which types keeps, and every later Encode sends the value alone.
	// Each frame starts with types, so it is the same self-contained
	// stream a fresh encoder would write, without a fresh encoder's type
	// walk and buffer growth every save. (gob describes a type mid-value
	// only for a non-nil interface, and the one interface in a State,
	// Config.Events, is always nil there.)
	enc   *gob.Encoder
	types []byte
}

// frameWriter is the io.Writer the gob encoder appends to the frame
// through; last is where its latest Write began.
type frameWriter struct {
	b    []byte
	last int
}

func (w *frameWriter) Write(p []byte) (int, error) {
	w.last = len(w.b)
	w.b = append(w.b, p...)
	return len(p), nil
}

// begin starts a frame in b: the reserved head, then the gob of c.
func (b *checkpointBufs) begin(c *Checkpoint) error {
	if b.enc == nil {
		b.frame.b = b.frame.b[:0]
		b.enc = gob.NewEncoder(&b.frame)
		if err := b.enc.Encode(&Checkpoint{}); err != nil {
			return err
		}
		b.types = bytes.Clone(b.frame.b[:b.frame.last])
	}
	b.frame.b = append(append(b.frame.b[:0], make([]byte, frameHead)...), b.types...)
	return b.enc.Encode(c)
}

// finish closes the frame begun in b — CRC, then the head right-aligned
// against the payload — and returns it; it aliases b.
func (b *checkpointBufs) finish() []byte {
	buf := b.frame.b
	n := len(buf) - frameHead
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[frameHead:], checkpointCRC))
	b.frame.b = buf
	var lenBuf [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(lenBuf[:], uint64(n))
	frame := buf[binary.MaxVarintLen64-w:]
	copy(frame, checkpointMagic)
	copy(frame[len(checkpointMagic):], lenBuf[:w])
	return frame
}

// encodeCheckpoint renders a saved Checkpoint as its on-disk frame, its
// platform columns by the reference writer.
func encodeCheckpoint(b *checkpointBufs, c *Checkpoint) ([]byte, error) {
	if c == nil || c.State == nil || c.State.p == nil {
		return nil, fmt.Errorf("sim: nil checkpoint")
	}
	if err := b.begin(c); err != nil {
		return nil, fmt.Errorf("sim: encode checkpoint: %w", err)
	}
	b.frame.b = c.State.p.Snapshot().AppendColumns(b.frame.b)
	return b.finish(), nil
}

// encodeCheckpoint renders the sim's checkpoint at pos as its on-disk
// frame, the platform columns written from the live platform: the index
// half on a goroutine beside the gob and the tables half. It refuses a
// Sim that is not at a day boundary. The frame aliases s.ckpt.
func (s *Sim) encodeCheckpoint(pos LogPosition) ([]byte, error) {
	if err := dayBoundary(s.phase); err != nil {
		return nil, err
	}
	b := &s.ckpt
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.index = s.p.AppendIndex(b.index[:0], &b.cols)
	}()
	s.stateInto(&b.state)
	err := b.begin(&Checkpoint{State: &b.state, Log: pos})
	if err == nil {
		b.frame.b = s.p.AppendTables(b.frame.b, &b.cols)
	}
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("sim: encode checkpoint: %w", err)
	}
	b.frame.b = append(b.frame.b, b.index...)
	return b.finish(), nil
}

// WriteCheckpoint atomically writes a checkpoint file.
func WriteCheckpoint(path string, c *Checkpoint) error {
	frame, err := encodeCheckpoint(new(checkpointBufs), c)
	if err != nil {
		return err
	}
	return writeFrame(path, frame)
}

// writeFrame stages frame, fsynced, beside path and renames it over path.
func writeFrame(path string, frame []byte) error {
	tmp := path + eventlog.TmpSuffix
	if err := eventlog.StageFile(tmp, frame, true); err != nil {
		return err
	}
	return eventlog.CommitFile(tmp, path, true)
}

// ReadCheckpoint reads and validates a checkpoint file: magic, version,
// declared length, and CRC are all checked before anything is decoded,
// the platform's columns are checked as they decode, and the decode
// itself is guarded so hostile bytes yield an error, never a panic.
func ReadCheckpoint(path string) (c *Checkpoint, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(data)
}

// DecodeCheckpoint validates and decodes checkpoint bytes (the body of
// ReadCheckpoint, split out for fuzzing). The State it returns holds the
// decoded platform for Restore, which checks the rest of the State.
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
	rd := bytes.NewReader(payload)
	if err := gob.NewDecoder(rd).Decode(c); err != nil {
		return nil, fmt.Errorf("sim: decode checkpoint: %w", err)
	}
	if c.State == nil {
		return nil, fmt.Errorf("sim: checkpoint has no state")
	}
	// The gob decoder reads a bytes.Reader message by message, never
	// ahead, so what it left is the platform's columns.
	if c.State.p, err = platform.DecodeColumns(payload[len(payload)-rd.Len():]); err != nil {
		return nil, fmt.Errorf("sim: decode checkpoint platform: %w", err)
	}
	if c.Log.NextSegment < 0 {
		return nil, fmt.Errorf("sim: checkpoint has negative segment index %d", c.Log.NextSegment)
	}
	return c, nil
}

// WriteCheckpointFile writes the sim's checkpoint with the given log
// position in one call; between days only, like every save.
func (s *Sim) WriteCheckpointFile(path string, pos LogPosition) error {
	frame, err := s.encodeCheckpoint(pos)
	if err != nil {
		return err
	}
	return writeFrame(path, frame)
}

// CheckpointInfo is what InspectCheckpoint can say about a checkpoint
// file without a debugger: the header facts plus, when the file
// validates, the snapshot's cursor and run shape.
type CheckpointInfo struct {
	Path    string
	Bytes   int64
	Version int // format version byte from the header (-1 if not a checkpoint at all)

	// Valid is true when magic, version, length, CRC, and decode all
	// passed; the fields below it are meaningful only then. Err holds
	// the validation failure otherwise.
	Valid bool
	Err   string

	Day  int
	Log  LogPosition
	Seed uint64
	Days int
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
	info.Log = c.Log
	info.Seed = c.State.Config.Seed
	info.Days = int(c.State.Config.Days)
	return info, nil
}
