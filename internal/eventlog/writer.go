package eventlog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// castagnoli is the CRC polynomial table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer appends CRC32-framed records to one segment stream. It
// implements Sink. Errors are sticky: after the first write failure the
// writer drops every subsequent event (counted in Dropped) and Err
// reports the failure, so emitters never have to handle I/O errors on
// the hot path.
//
// Not safe for concurrent use; wrap in Async for concurrent emitters.
type Writer struct {
	w     io.Writer
	enc   *encoder
	buf   []byte
	frame []byte // reusable framing buffer: Append is alloc-free steady-state

	wroteHeader bool
	err         error

	events  uint64
	bytes   uint64
	dropped uint64
	crc     uint32
}

// NewWriter returns a Writer over w. Nothing is written until the first
// Append, so constructing a Writer over a slow or failing destination is
// always cheap.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, enc: newEncoder()}
}

// Append encodes and frames ev. Failures are absorbed into Err.
func (w *Writer) Append(ev Event) {
	if w.err != nil {
		w.dropped++
		return
	}
	if !w.wroteHeader {
		if _, err := w.w.Write(Magic[:]); err != nil {
			w.fail(err)
			return
		}
		w.bytes += uint64(len(Magic))
		w.crc = crc32.Update(w.crc, castagnoli, Magic[:])
		w.wroteHeader = true
	}
	payload, err := w.enc.appendEvent(w.buf[:0], &ev)
	w.buf = payload[:0]
	if err != nil {
		w.fail(err)
		return
	}
	frame := binary.AppendUvarint(w.frame[:0], uint64(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	w.frame = frame
	if _, err := w.w.Write(frame); err != nil {
		w.fail(err)
		return
	}
	w.events++
	w.bytes += uint64(len(frame))
	w.crc = crc32.Update(w.crc, castagnoli, frame)
}

// AppendBatch appends the batch in order with Append's sticky-error
// semantics: events after the first failure are dropped and counted.
func (w *Writer) AppendBatch(evs []Event) {
	for i := range evs {
		w.Append(evs[i])
	}
}

func (w *Writer) fail(err error) {
	w.err = err
	w.dropped++
}

// Err reports the first write or encode failure, if any.
func (w *Writer) Err() error { return w.err }

// Events is the number of records successfully framed.
func (w *Writer) Events() uint64 { return w.events }

// Bytes is the number of bytes successfully written, header included.
func (w *Writer) Bytes() uint64 { return w.bytes }

// Dropped is the number of events discarded after a failure.
func (w *Writer) Dropped() uint64 { return w.dropped }

// CRC32C is the running Castagnoli CRC over every byte written so far,
// header included. The DirWriter records it per segment in the manifest.
func (w *Writer) CRC32C() uint32 { return w.crc }

// DefaultSegmentBytes is the DirWriter rotation threshold.
const DefaultSegmentBytes = 8 << 20

// DefaultSyncBytes is the SyncInterval fsync stride.
const DefaultSyncBytes = 1 << 20

// TmpSuffix marks a segment still being written. The active segment
// lives at "<name>.evlog.tmp" and is renamed to its final name only
// after a successful sync+close ("sealing"), so a final-named segment is
// always complete. A crash leaves at most one .tmp tail behind;
// RecoverDir repairs and finalizes it. The manifest and the checkpoint
// files are staged under the same suffix (StageFile, CommitFile).
const TmpSuffix = ".tmp"

// SyncPolicy selects how aggressively DirWriter fsyncs segment data.
type SyncPolicy uint8

const (
	// SyncNone never fsyncs: fastest, but a crash can lose any buffered
	// segment bytes. Sealed-segment renames still happen, so completed
	// segments keep their final names.
	SyncNone SyncPolicy = iota
	// SyncRotate fsyncs each segment once, when it is sealed (rotation
	// or Close). The default: the hot path stays write-only and a crash
	// can lose at most the active segment's tail.
	SyncRotate
	// SyncInterval fsyncs like SyncRotate plus every DefaultSyncBytes of the
	// active segment, bounding tail loss at the cost of periodic fsyncs.
	SyncInterval
)

// ParseSyncPolicy maps a -sync flag value ("none", "rotate" or
// "interval") onto its policy. The error carries no package prefix;
// each binary adds its own.
func ParseSyncPolicy(mode string) (SyncPolicy, error) {
	switch mode {
	case "none":
		return SyncNone, nil
	case "rotate":
		return SyncRotate, nil
	case "interval":
		return SyncInterval, nil
	default:
		return 0, fmt.Errorf("unknown sync policy %q (want none, rotate, or interval)", mode)
	}
}

// BufferBytes is the size of the DirWriter's write buffer. Under every
// policy the active segment's newest frames sit in it until it fills, an
// fsync is due, the segment is sealed, or Flush is called. Every fsync
// is preceded by a flush, so what a policy promises against power loss
// is what it promised when each frame was its own write; a killed
// process additionally loses the unflushed buffer, and the live .tmp
// segment on disk can lag Events by up to BufferBytes.
const BufferBytes = 64 << 10

// SegmentPattern names segment files inside a log directory.
const SegmentPattern = "events-%05d.evlog"

// DirWriter writes a segmented log into a directory, rotating to a new
// segment file once the current one passes DefaultSegmentBytes. It implements
// Sink with the same sticky-error contract as Writer.
//
// Durability: the active segment is written under a .tmp name and
// "sealed" on rotation or Close — synced per the Sync policy, closed,
// atomically renamed to its final name, and recorded in the directory's
// manifest. A final-named segment is therefore always complete; a crash
// leaves at most one torn .tmp tail for RecoverDir to repair. Appended
// frames reach the file one buffer at a time (see BufferBytes).
type DirWriter struct {
	dir string
	// segmentBytes is the rotation threshold and syncBytes the
	// SyncInterval stride: DefaultSegmentBytes and DefaultSyncBytes, set
	// smaller only by this package's tests.
	segmentBytes uint64
	// Sync is the fsync policy; NewDirWriter defaults it to SyncRotate.
	Sync      SyncPolicy
	syncBytes uint64

	seg      *Writer
	file     *os.File
	segIdx   int
	lastSync uint64
	sealed   []ManifestSegment
	err      error
	events   uint64
	bytes    uint64
	dropped  uint64

	// buf holds the active segment's frames not yet written to out: one
	// write(2) per BufferBytes instead of one per ~16-byte frame.
	// flushedEvents/flushedBytes are the segment Writer's counters as of
	// the last flush, i.e. what the file holds.
	buf           []byte
	out           io.Writer // file, or wrapFile's wrapper of it
	flushedEvents uint64
	flushedBytes  uint64

	// wrapFile, when set (fault-injection tests only), interposes on
	// every segment file's writes.
	wrapFile func(*os.File) io.Writer
}

// segOut is the io.Writer the segment Writer frames into: the
// DirWriter's buffer, flushed first when the next frame would not fit.
// A frame is at most MaxString plus a few dozen bytes, so it always fits
// an empty buffer.
type segOut DirWriter

func (o *segOut) Write(p []byte) (int, error) {
	d := (*DirWriter)(o)
	if len(d.buf)+len(p) > cap(d.buf) {
		if err := d.flush(); err != nil {
			return 0, err
		}
	}
	d.buf = append(d.buf, p...)
	return len(p), nil
}

// flush writes the buffered frames to the segment file. Whenever it
// runs — between Appends, or inside one before the new frame is counted
// — the segment Writer's counters cover exactly the frames in the file
// plus the buffer, so after a successful write they describe the file.
func (d *DirWriter) flush() error {
	if len(d.buf) > 0 {
		if _, err := d.out.Write(d.buf); err != nil {
			return err
		}
		d.buf = d.buf[:0]
	}
	d.flushedEvents, d.flushedBytes = d.seg.Events(), d.seg.Bytes()
	return nil
}

// Flush writes buffered frames to the active segment file without
// fsyncing, so a reader of the live directory sees every event appended
// so far.
func (d *DirWriter) Flush() error {
	if d.err != nil {
		return d.err
	}
	if d.seg == nil {
		return nil
	}
	if err := d.flush(); err != nil {
		d.abandon(err)
		return err
	}
	return nil
}

// NewDirWriter creates dir (if needed) and returns a segmented writer
// into it, starting at segment 0 with the default SyncRotate policy.
// The first segment file is created lazily on first Append.
func NewDirWriter(dir string) (*DirWriter, error) {
	return NewDirWriterAt(dir, 0)
}

// NewDirWriterAt returns a segmented writer that opens its first segment
// at index nextSegment, for resuming an existing log at a sealed-segment
// boundary. Manifest entries for segments below nextSegment are carried
// over so the manifest stays complete across the resume. The caller is
// responsible for having removed segments at or above nextSegment (see
// TruncateToSegment).
func NewDirWriterAt(dir string, nextSegment int) (*DirWriter, error) {
	if nextSegment < 0 {
		return nil, fmt.Errorf("eventlog: negative segment index %d", nextSegment)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("eventlog: %w", err)
	}
	d := &DirWriter{
		dir:          dir,
		segmentBytes: DefaultSegmentBytes,
		Sync:         SyncRotate,
		syncBytes:    DefaultSyncBytes,
		segIdx:       nextSegment,
		buf:          make([]byte, 0, BufferBytes),
	}
	if nextSegment > 0 {
		m, err := ReadManifest(dir)
		if err != nil {
			return nil, err
		}
		if m != nil {
			for _, s := range m.Segments {
				if idx, ok := SegmentIndex(s.Name); ok && idx < nextSegment {
					d.sealed = append(d.sealed, s)
				}
			}
		}
	}
	return d, nil
}

// Append writes ev to the current segment, rotating first if the
// segment is full.
func (d *DirWriter) Append(ev Event) {
	if d.err != nil {
		d.dropped++
		return
	}
	if d.seg != nil && d.seg.Bytes() >= d.segmentBytes {
		if err := d.seal(); err != nil {
			d.fail(err)
			return
		}
	}
	if d.seg == nil {
		f, err := os.Create(d.segmentPath(d.segIdx) + TmpSuffix)
		if err != nil {
			d.fail(err)
			return
		}
		d.file, d.out = f, f
		if d.wrapFile != nil {
			d.out = d.wrapFile(f)
		}
		d.seg = NewWriter((*segOut)(d))
		d.lastSync, d.flushedEvents, d.flushedBytes = 0, 0, 0
	}
	d.seg.Append(ev)
	if err := d.seg.Err(); err != nil {
		d.fail(err)
		return
	}
	d.events++
	if d.Sync == SyncInterval && d.seg.Bytes()-d.lastSync >= d.syncBytes {
		err := d.flush()
		if err == nil {
			err = d.file.Sync()
		}
		if err != nil {
			d.abandon(err)
			return
		}
		d.lastSync = d.seg.Bytes()
	}
}

// AppendBatch appends the batch in order, rotating segments as needed.
func (d *DirWriter) AppendBatch(evs []Event) {
	for i := range evs {
		d.Append(evs[i])
	}
}

func (d *DirWriter) segmentPath(idx int) string {
	return filepath.Join(d.dir, fmt.Sprintf(SegmentPattern, idx))
}

// NextSegment is the index of the segment the next Append would write
// into if the current one were sealed first. Immediately after Rotate it
// is the index the log resumes at — what checkpoints record.
func (d *DirWriter) NextSegment() int {
	if d.seg != nil {
		return d.segIdx + 1
	}
	return d.segIdx
}

// Rotate seals the active segment now, so the next Append starts a fresh
// one. Checkpointing calls this to align snapshots with segment
// boundaries. A no-op when no segment is open.
func (d *DirWriter) Rotate() error {
	if d.err != nil {
		return d.err
	}
	if d.seg == nil {
		return nil
	}
	if err := d.seal(); err != nil {
		d.abandon(err)
		return err
	}
	return nil
}

// seal flushes, syncs, closes, and renames the active segment to its
// final name, then records it in the manifest. Once the flush succeeded
// the file handle is always closed, even when the sync fails, so a
// failed seal never leaks it; a failed flush leaves the segment for
// abandon to account for. The manifest entry is built after the flush,
// so it describes bytes the file holds.
func (d *DirWriter) seal() error {
	if err := d.flush(); err != nil {
		return err
	}
	entry := ManifestSegment{
		Name:   fmt.Sprintf(SegmentPattern, d.segIdx),
		Bytes:  d.seg.Bytes(),
		Events: d.seg.Events(),
		CRC32C: d.seg.CRC32C(),
	}
	d.bytes += d.seg.Bytes()
	d.seg = nil
	f := d.file
	d.file, d.out = nil, nil
	final := d.segmentPath(d.segIdx)
	d.segIdx++

	var syncErr error
	if d.Sync != SyncNone {
		syncErr = f.Sync()
	}
	closeErr := f.Close()
	if syncErr != nil {
		return syncErr
	}
	if closeErr != nil {
		return closeErr
	}
	if err := os.Rename(final+TmpSuffix, final); err != nil {
		return err
	}
	if d.Sync != SyncNone {
		if err := SyncDir(d.dir); err != nil {
			return err
		}
	}
	d.sealed = append(d.sealed, entry)
	return writeManifest(d.dir, &Manifest{
		Version:     ManifestVersion,
		NextSegment: d.segIdx,
		Segments:    d.sealed,
	}, d.Sync != SyncNone)
}

// fail abandons the writer and drops the event being appended.
func (d *DirWriter) fail(err error) {
	d.abandon(err)
	d.dropped++
}

// abandon makes err sticky and gives up the active segment. Frames still
// in the buffer never reached the file, so they move from Events to
// Dropped, and Bytes keeps only what was flushed.
func (d *DirWriter) abandon(err error) {
	d.err = err
	if d.seg == nil {
		return
	}
	lost := d.seg.Events() - d.flushedEvents
	d.events -= lost
	d.dropped += lost
	d.bytes += d.flushedBytes
	d.buf = d.buf[:0]
	d.file.Close()
	d.file, d.out, d.seg = nil, nil, nil
}

// Close seals the active segment (flush, sync, close, rename, manifest).
func (d *DirWriter) Close() error {
	if d.seg != nil {
		if err := d.seal(); err != nil {
			d.abandon(err)
		}
	}
	return d.err
}

// Err reports the first failure, if any.
func (d *DirWriter) Err() error { return d.err }

// Events is the number of records successfully appended.
func (d *DirWriter) Events() uint64 { return d.events }

// Bytes is the total bytes written across closed and current segments.
func (d *DirWriter) Bytes() uint64 {
	if d.seg != nil {
		return d.bytes + d.seg.Bytes()
	}
	return d.bytes
}

// Dropped is the number of events discarded after a failure.
func (d *DirWriter) Dropped() uint64 { return d.dropped }
