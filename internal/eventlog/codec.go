package eventlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// On-disk format, designed so a log survives partial writes and hostile
// input without ever panicking or over-allocating in the decoder:
//
//	segment := magic version frame*
//	frame   := uvarint(len(payload)) payload crc32c(payload)
//	payload := type day account fields...   (per-type field list)
//
// Integers are varints (zigzag for signed fields), floats are 8
// little-endian IEEE-754 bytes, and strings are interned: the first
// occurrence in a segment is written inline (tag 0, length, bytes) and
// assigned the next sequential ID; later occurrences write only the ID.
// The intern table resets at every segment boundary, so any segment is
// independently decodable.

// Magic is the segment file header; the trailing byte is the format
// version.
var Magic = [6]byte{'E', 'V', 'L', 'O', 'G', 1}

// Format bounds. The decoder rejects anything beyond them before
// allocating, so corrupt or adversarial length prefixes cannot force
// large allocations.
const (
	// MaxFrame caps one record's payload size.
	MaxFrame = 1 << 16
	// MaxString caps one interned string definition.
	MaxString = 1 << 12
)

// Decode and frame errors. Reader wraps them with file offsets.
var (
	ErrBadMagic      = errors.New("eventlog: bad segment magic")
	ErrFrameTooLarge = errors.New("eventlog: frame exceeds MaxFrame")
	ErrTruncated     = errors.New("eventlog: truncated frame")
	ErrCorrupt       = errors.New("eventlog: frame CRC mismatch")
	ErrBadEvent      = errors.New("eventlog: malformed event payload")
)

// zigzag folds signed values into unsigned varint space.
func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encoder carries the per-segment intern table and encodes events into
// payload bytes. Not safe for concurrent use; the Writer serializes.
type encoder struct {
	intern map[string]uint64
}

func newEncoder() *encoder { return &encoder{intern: make(map[string]uint64)} }

func (e *encoder) appendString(dst []byte, s string) ([]byte, error) {
	if id, ok := e.intern[s]; ok {
		return binary.AppendUvarint(dst, id), nil
	}
	if len(s) > MaxString {
		return dst, fmt.Errorf("%w: string of %d bytes", ErrBadEvent, len(s))
	}
	e.intern[s] = uint64(len(e.intern)) + 1
	dst = binary.AppendUvarint(dst, 0)
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...), nil
}

func appendZig(dst []byte, v int64) []byte { return binary.AppendUvarint(dst, zigzag(v)) }

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// appendEvent encodes ev's payload onto dst.
func (e *encoder) appendEvent(dst []byte, ev *Event) ([]byte, error) {
	if ev.Type == 0 || ev.Type >= numTypes {
		return dst, fmt.Errorf("%w: unknown type %d", ErrBadEvent, ev.Type)
	}
	var err error
	dst = append(dst, byte(ev.Type))
	dst = appendZig(dst, int64(ev.Day))
	dst = appendZig(dst, int64(ev.Account))
	switch ev.Type {
	case TypeAccountCreated:
		dst = appendF64(dst, ev.At)
		if dst, err = e.appendString(dst, ev.Country); err != nil {
			return dst, err
		}
		dst = appendZig(dst, int64(ev.Vertical))
		dst = appendZig(dst, int64(ev.N))
		dst = append(dst, ev.Flags)
	case TypeReregistration:
		dst = appendZig(dst, int64(ev.N))
	case TypeAdCreated:
		dst = appendZig(dst, int64(ev.Vertical))
	case TypeAdModified, TypeBidModified:
		// Header-only records.
	case TypeBidPlaced:
		dst = append(dst, ev.Match)
		dst = appendF64(dst, ev.Amount)
	case TypeImpression:
		dst = appendZig(dst, int64(ev.Vertical))
		if dst, err = e.appendString(dst, ev.Country); err != nil {
			return dst, err
		}
		dst = appendZig(dst, int64(ev.Position))
		dst = append(dst, ev.Match, ev.Flags)
		// The billed price exists only on clicked impressions; unclicked
		// ones (the overwhelming majority) save the eight bytes.
		if ev.Flags&FlagClicked != 0 {
			dst = appendF64(dst, ev.Amount)
		}
	case TypeDetection:
		dst = appendF64(dst, ev.At)
		dst = append(dst, ev.Stage)
		if dst, err = e.appendString(dst, ev.Reason); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// decoder mirrors encoder: it carries the per-segment intern table.
type decoder struct {
	intern []string
}

// cursor walks a payload with bounds-checked reads.
type cursor struct{ b []byte }

func (c *cursor) u8() (byte, error) {
	if len(c.b) == 0 {
		return 0, ErrBadEvent
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v, nil
}

func (c *cursor) uvarint() (uint64, error) {
	// Most fields are small: one or two bytes, no loop.
	if len(c.b) > 0 && c.b[0] < 0x80 {
		v := uint64(c.b[0])
		c.b = c.b[1:]
		return v, nil
	}
	if len(c.b) > 1 && c.b[1] < 0x80 {
		v := uint64(c.b[0]&0x7f) | uint64(c.b[1])<<7
		c.b = c.b[2:]
		return v, nil
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		return 0, ErrBadEvent
	}
	c.b = c.b[n:]
	return v, nil
}

// zig32 decodes a zigzag varint that must fit in an int32.
func (c *cursor) zig32() (int32, error) {
	if len(c.b) > 0 && c.b[0] < 0x80 {
		u := c.b[0]
		c.b = c.b[1:]
		return int32(u>>1) ^ -int32(u&1), nil
	}
	u, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	v := unzigzag(u)
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("%w: value %d overflows int32", ErrBadEvent, v)
	}
	return int32(v), nil
}

func (c *cursor) f64() (float64, error) {
	if len(c.b) < 8 {
		return 0, ErrBadEvent
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b))
	c.b = c.b[8:]
	return v, nil
}

func (d *decoder) str(c *cursor) (string, error) {
	id, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if id != 0 {
		if id > uint64(len(d.intern)) {
			return "", fmt.Errorf("%w: intern ref %d beyond table of %d", ErrBadEvent, id, len(d.intern))
		}
		return d.intern[id-1], nil
	}
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > MaxString {
		return "", fmt.Errorf("%w: string of %d bytes", ErrBadEvent, n)
	}
	if uint64(len(c.b)) < n {
		return "", ErrBadEvent
	}
	s := string(c.b[:n])
	c.b = c.b[n:]
	d.intern = append(d.intern, s)
	return s, nil
}

// decodeEvent decodes one payload into ev. Every field not encoded for
// the type is zeroed, and trailing garbage is an error, so decode is an
// exact inverse of appendEvent.
func (d *decoder) decodeEvent(payload []byte, ev *Event) error {
	*ev = Event{}
	c := cursor{b: payload}
	t, err := c.u8()
	if err != nil {
		return err
	}
	if t == 0 || Type(t) >= numTypes {
		return fmt.Errorf("%w: unknown type %d", ErrBadEvent, t)
	}
	ev.Type = Type(t)
	if ev.Day, err = c.zig32(); err != nil {
		return err
	}
	if ev.Account, err = c.zig32(); err != nil {
		return err
	}
	switch ev.Type {
	case TypeAccountCreated:
		if ev.At, err = c.f64(); err != nil {
			return err
		}
		if ev.Country, err = d.str(&c); err != nil {
			return err
		}
		if ev.Vertical, err = c.zig32(); err != nil {
			return err
		}
		if ev.N, err = c.zig32(); err != nil {
			return err
		}
		if ev.Flags, err = c.u8(); err != nil {
			return err
		}
	case TypeReregistration:
		if ev.N, err = c.zig32(); err != nil {
			return err
		}
	case TypeAdCreated:
		if ev.Vertical, err = c.zig32(); err != nil {
			return err
		}
	case TypeAdModified, TypeBidModified:
	case TypeBidPlaced:
		if ev.Match, err = c.u8(); err != nil {
			return err
		}
		if ev.Amount, err = c.f64(); err != nil {
			return err
		}
	case TypeImpression:
		if ev.Vertical, err = c.zig32(); err != nil {
			return err
		}
		if ev.Country, err = d.str(&c); err != nil {
			return err
		}
		if ev.Position, err = c.zig32(); err != nil {
			return err
		}
		if ev.Match, err = c.u8(); err != nil {
			return err
		}
		if ev.Flags, err = c.u8(); err != nil {
			return err
		}
		if ev.Flags&FlagClicked != 0 {
			if ev.Amount, err = c.f64(); err != nil {
				return err
			}
		}
	case TypeDetection:
		if ev.At, err = c.f64(); err != nil {
			return err
		}
		if ev.Stage, err = c.u8(); err != nil {
			return err
		}
		if ev.Reason, err = d.str(&c); err != nil {
			return err
		}
	}
	if len(c.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadEvent, len(c.b))
	}
	return nil
}
