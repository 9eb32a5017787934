package eventlog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/simclock"
)

// TypeMask builds a Filter.Types bitmask from event types.
func TypeMask(types ...Type) uint64 {
	var m uint64
	for _, t := range types {
		m |= 1 << uint(t)
	}
	return m
}

// Filter selects a subset of a log stream. The zero Filter matches
// everything.
type Filter struct {
	// From..To is a half-open day window [From, To). When To <= From the
	// window is unbounded.
	From, To simclock.Day
	// Types is a TypeMask of wanted event types; 0 means all.
	Types uint64
}

// Match reports whether ev passes the filter.
func (f Filter) Match(ev *Event) bool {
	if f.Types != 0 && f.Types&(1<<uint(ev.Type)) == 0 {
		return false
	}
	if f.To > f.From {
		d := simclock.Day(ev.Day)
		if d < f.From || d >= f.To {
			return false
		}
	}
	return true
}

// Reader streams events from one segment. Filtering happens after a
// record is fully decoded — every record feeds the intern table whether
// or not it matches, so filtered reads stay consistent.
//
// Frames are walked in place: the buffer holds any whole frame, so each
// one is CRC-checked and decoded where it lies and never copied out.
type Reader struct {
	src    io.Reader
	buf    []byte // readerBuf bytes
	lo, hi int    // buf[lo:hi] is read from src and not yet walked
	srcErr error  // why src stopped: io.EOF at its end
	dec    decoder
	filter Filter
	frames uint64
	offset int64
	header bool
}

// readerBuf holds the largest frame: its size varint, payload and CRC.
const readerBuf = binary.MaxVarintLen64 + MaxFrame + 4

// NewReader returns a Reader over one segment stream.
func NewReader(r io.Reader, filter Filter) *Reader {
	return &Reader{src: r, buf: make([]byte, readerBuf), filter: filter}
}

// more returns the bytes not yet walked, first reading until there are
// at least n of them or src has stopped. Fewer than n bytes means src
// stopped, and srcErr says why.
func (r *Reader) more(n int) []byte {
	if r.hi-r.lo < n && r.srcErr == nil {
		r.hi = copy(r.buf, r.buf[r.lo:r.hi])
		r.lo = 0
		for empty := 0; r.hi < n && r.srcErr == nil; {
			m, err := r.src.Read(r.buf[r.hi:])
			r.hi += m
			r.srcErr = err
			if m == 0 && err == nil {
				if empty++; empty == 100 {
					r.srcErr = io.ErrNoProgress
				}
			}
		}
	}
	return r.buf[r.lo:r.hi]
}

// Frames is the number of frames decoded so far, filtered or not.
func (r *Reader) Frames() uint64 { return r.frames }

// Offset is the byte offset just past the last cleanly decoded frame (or
// past the header if no frame has decoded yet). After a frame error this
// is the last CRC-valid offset — the truncation point torn-tail repair
// uses.
func (r *Reader) Offset() int64 { return r.offset }

func (r *Reader) readHeader() error {
	head := r.more(len(Magic))
	if len(head) < len(Magic) {
		err := r.srcErr
		if err == io.EOF {
			if len(head) == 0 {
				// A zero-byte stream is an empty log, not a corrupt one.
				return io.EOF
			}
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if [len(Magic)]byte(head) != Magic {
		return ErrBadMagic
	}
	r.lo += len(Magic)
	r.offset = int64(len(Magic))
	r.header = true
	return nil
}

// next decodes the next frame into ev, ignoring the filter.
func (r *Reader) next(ev *Event) error {
	if !r.header {
		if err := r.readHeader(); err != nil {
			return err
		}
	}
	// Near the end of the stream the size is whole in fewer bytes than
	// its longest encoding.
	frame := r.more(binary.MaxVarintLen64)
	size, n := uint64(0), 0
	if len(frame) > 0 && frame[0] < 0x80 {
		size, n = uint64(frame[0]), 1
	} else if size, n = binary.Uvarint(frame); n <= 0 {
		err := r.srcErr
		switch {
		case len(frame) == 0 && err == io.EOF:
			return io.EOF
		case n < 0 || len(frame) >= binary.MaxVarintLen64:
			// Overflow; binary.ReadUvarint words it.
			_, err = binary.ReadUvarint(bytes.NewReader(frame))
		case err == io.EOF:
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("%w at offset %d: %v", ErrTruncated, r.offset, err)
	}
	if size > MaxFrame {
		return fmt.Errorf("%w: %d bytes at offset %d", ErrFrameTooLarge, size, r.offset)
	}
	end := n + int(size) + 4
	if len(frame) < end {
		if frame = r.more(end); len(frame) < end {
			err := r.srcErr
			if err == io.EOF && len(frame) > n {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("%w at offset %d: %v", ErrTruncated, r.offset, err)
		}
	}
	payload := frame[n : end-4]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(frame[end-4:]) {
		return fmt.Errorf("%w at offset %d", ErrCorrupt, r.offset)
	}
	if err := r.dec.decodeEvent(payload, ev); err != nil {
		return fmt.Errorf("%w at offset %d", err, r.offset)
	}
	r.lo += end
	r.frames++
	r.offset += int64(end)
	return nil
}

// Next decodes frames into ev until one matches the filter. It returns
// io.EOF at a clean end of stream and a wrapped frame error on damage.
func (r *Reader) Next(ev *Event) error {
	for {
		if err := r.next(ev); err != nil {
			return err
		}
		if r.filter.Match(ev) {
			return nil
		}
	}
}

// Segments lists a log directory's segment files in write order.
func Segments(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "events-*.evlog"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return matches, nil
}

// The scan pipeline: ScanFiles decodes on a goroutine of its own into
// scanDepth batches of scanBatch events, so decode runs at most that
// far ahead of fn and the buffers are a fixed size.
const (
	scanBatch = 2048
	scanDepth = 4
)

// batch is one hand-off from the decoding goroutine to fn: events[:n],
// then err if the scan ended on one.
type batch struct {
	events []Event
	n      int
	err    error
}

// ScanFiles streams every matching event from the given segment files,
// in order, calling fn for each. It stops at the first frame error or
// the first error returned by fn, and returns it after exactly the
// events before it. The *Event passed to fn is valid only during that
// call: the events are decoded a few batches ahead, on another
// goroutine, into buffers that are reused.
func ScanFiles(paths []string, filter Filter, fn func(*Event) error) error {
	full := make(chan *batch, scanDepth)
	free := make(chan *batch, scanDepth)
	events := make([]Event, scanDepth*scanBatch)
	for i := 0; i < scanDepth; i++ {
		free <- &batch{events: events[i*scanBatch : (i+1)*scanBatch]}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(full)
		decodeFiles(paths, filter, free, full, stop)
	}()
	// Returning early (fn's error, or its panic) stops the decoder and
	// waits for it, so no goroutine outlives the call.
	defer func() {
		close(stop)
		<-done
	}()
	for b := range full {
		for i := range b.events[:b.n] {
			if err := fn(&b.events[i]); err != nil {
				return err
			}
		}
		if b.err != nil {
			return b.err
		}
		free <- b
	}
	return nil
}

// decodeFiles is ScanFiles' decoding goroutine. It fills batches taken
// from free and hands them to full, the last one carrying the error
// that ended the scan, if any. It returns early once stop closes.
func decodeFiles(paths []string, filter Filter, free <-chan *batch, full chan<- *batch, stop <-chan struct{}) {
	b := <-free
	send := func() bool {
		select {
		case full <- b:
		case <-stop:
			return false
		}
		select {
		case b = <-free:
			b.n = 0
			return true
		case <-stop:
			return false
		}
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			b.err = err
			break
		}
		r := NewReader(f, filter)
		for err = r.Next(&b.events[b.n]); err == nil; err = r.Next(&b.events[b.n]) {
			if b.n++; b.n == len(b.events) && !send() {
				f.Close()
				return
			}
		}
		if err != io.EOF {
			f.Close()
			b.err = fmt.Errorf("%s: %w", path, err)
			break
		}
		if err := f.Close(); err != nil {
			b.err = err
			break
		}
	}
	if b.n > 0 || b.err != nil {
		select {
		case full <- b:
		case <-stop:
		}
	}
}

// ScanDir streams every matching event from a log directory.
func ScanDir(dir string, filter Filter, fn func(*Event) error) error {
	paths, err := Segments(dir)
	if err != nil {
		return err
	}
	return ScanFiles(paths, filter, fn)
}
