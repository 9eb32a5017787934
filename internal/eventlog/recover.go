package eventlog

// Crash recovery. A crash (or SIGKILL, or power loss) can leave a log
// directory in exactly these states, all of which RecoverDir handles:
//
//   - sealed (final-named) segments, all complete — the common case;
//   - one torn .tmp tail: the segment being written when the process
//     died, possibly ending mid-frame;
//   - a sealed segment missing from the manifest: the crash landed
//     between the rename and the manifest rewrite;
//   - a stale manifest.json.tmp from a torn manifest rewrite;
//   - (legacy, pre-manifest logs) a torn tail on the last final-named
//     segment, from writers that wrote segments in place.
//
// Repair truncates the tail segment to its last CRC-valid frame
// boundary, finalizes a surviving .tmp, deletes a .tmp that never got a
// complete frame, and rewrites the manifest to match what is actually on
// disk. Damage to a non-tail sealed segment is not repairable by tail
// truncation and is reported as an error instead of silently dropping
// sealed data.

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// SegmentReport describes one segment examined by RecoverDir.
type SegmentReport struct {
	Name   string // base name as found on disk (may end in .tmp)
	Index  int    // segment index parsed from the name
	Tmp    bool   // found under the .tmp (unsealed) name
	Frames uint64 // CRC-valid frames
	Bytes  int64  // file size as found
	Valid  int64  // byte offset of the last CRC-valid frame boundary
	Err    string // frame error past Valid, "" if the segment is clean

	// Repair actions (taken when apply, needed otherwise).
	Truncated bool // tail past Valid cut (or would be)
	Finalized bool // .tmp renamed to its final name (or would be)
	Removed   bool // frameless .tmp deleted (or would be)

	// ManifestMismatch notes a sealed segment whose manifest entry
	// disagrees with the file (size, frame count, or CRC). The scan is
	// the source of truth; repair rewrites the manifest.
	ManifestMismatch string
}

// Report is the outcome of RecoverDir over one log directory.
type Report struct {
	Dir      string
	Segments []SegmentReport

	// Healthy means nothing needed repair: every segment sealed and
	// clean, manifest consistent, no torn tail.
	Healthy bool
	// Applied means repairs were performed (always false in dry runs).
	Applied bool

	// DroppedBytes is the total tail bytes cut (or that would be cut).
	DroppedBytes int64
	// Events is the total CRC-valid frames across all segments.
	Events uint64
	// NextSegment is the index a resumed writer should open next.
	NextSegment int
}

// String renders a one-line summary, for logs and CLI output.
func (r *Report) String() string {
	if r.Healthy {
		return fmt.Sprintf("%s: healthy (%d segments, %d events)", r.Dir, len(r.Segments), r.Events)
	}
	verb := "needs repair"
	if r.Applied {
		verb = "repaired"
	}
	return fmt.Sprintf("%s: %s (%d segments, %d events kept, %d bytes dropped)",
		r.Dir, verb, len(r.Segments), r.Events, r.DroppedBytes)
}

// scanSegment walks a segment's frames and returns the count of valid
// frames, the offset just past the last valid one, the file size, the
// frame error that stopped the scan (nil for a clean segment), and the
// CRC32C of every byte the scan read. A clean scan reads to EOF, so its
// CRC is the whole file's, and checking a sealed segment against the
// manifest needs no second read.
func scanSegment(path string) (frames uint64, valid int64, size int64, crc uint32, scanErr error, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, 0, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, 0, 0, nil, err
	}
	size = fi.Size()
	h := crc32.New(castagnoli)
	r := NewReader(io.TeeReader(f, h), Filter{})
	var ev Event
	for {
		err := r.Next(&ev)
		if err == io.EOF {
			return r.Frames(), r.Offset(), size, h.Sum32(), nil, nil
		}
		if err != nil {
			return r.Frames(), r.Offset(), size, h.Sum32(), err, nil
		}
	}
}

// fileCRC computes the Castagnoli CRC of the first n bytes of path.
func fileCRC(path string, n int64) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := crc32.New(castagnoli)
	if _, err := io.CopyN(h, f, n); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}

type foundSegment struct {
	path string
	idx  int
	tmp  bool
}

// listSegments returns every segment file (final and .tmp) in index
// order, erroring on unparseable or duplicate-index names.
func listSegments(dir string) ([]foundSegment, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "events-*.evlog"))
	if err != nil {
		return nil, err
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "events-*.evlog"+TmpSuffix))
	if err != nil {
		return nil, err
	}
	var found []foundSegment
	seen := map[int]string{}
	for _, path := range append(matches, tmps...) {
		idx, ok := SegmentIndex(path)
		if !ok {
			return nil, fmt.Errorf("eventlog: unrecognized segment name %q", filepath.Base(path))
		}
		if prev, dup := seen[idx]; dup {
			return nil, fmt.Errorf("eventlog: duplicate segment index %d (%s and %s)", idx, prev, filepath.Base(path))
		}
		seen[idx] = filepath.Base(path)
		found = append(found, foundSegment{path: path, idx: idx, tmp: strings.HasSuffix(path, TmpSuffix)})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].idx < found[j].idx })
	return found, nil
}

// RecoverDir examines (and with apply, repairs) a possibly crash-torn
// log directory. With apply=false it is a pure dry run: it reports what
// repair would do and leaves every byte untouched. With apply=true it
// truncates the torn tail to the last CRC-valid frame, finalizes or
// removes the .tmp segment, deletes stale temp files, and rewrites the
// manifest to match the surviving segments, fsyncing as it goes.
//
// It returns a non-nil Report alongside any error whenever the scan got
// far enough to say something useful.
func RecoverDir(dir string, apply bool) (*Report, error) {
	rep := &Report{Dir: dir}
	found, err := listSegments(dir)
	if err != nil {
		return rep, err
	}
	manifest, err := ReadManifest(dir)
	if err != nil {
		return rep, err
	}
	byName := map[string]ManifestSegment{}
	if manifest != nil {
		for _, s := range manifest.Segments {
			byName[s.Name] = s
		}
	}

	// Only the last segment can be a crash casualty: everything before
	// it was sealed (or, for legacy logs, fully written) before the next
	// segment started. A .tmp anywhere but the tail means the directory
	// was not produced by a writer crash.
	for i, fs := range found {
		if fs.tmp && i != len(found)-1 {
			return rep, fmt.Errorf("eventlog: unsealed segment %s is not the tail", filepath.Base(fs.path))
		}
	}

	dirty := false // anything that would change bytes on disk
	manifestStale := manifest == nil && len(found) > 0
	for i, fs := range found {
		frames, valid, size, crc, scanErr, err := scanSegment(fs.path)
		if err != nil {
			return rep, err
		}
		sr := SegmentReport{
			Name:   filepath.Base(fs.path),
			Index:  fs.idx,
			Tmp:    fs.tmp,
			Frames: frames,
			Bytes:  size,
			Valid:  valid,
		}
		if scanErr != nil {
			sr.Err = scanErr.Error()
		}
		last := i == len(found)-1

		switch {
		case scanErr == nil && !fs.tmp:
			// Clean sealed segment: cross-check the manifest.
			if m, ok := byName[sr.Name]; ok {
				if m.Bytes != uint64(size) || m.Events != frames {
					sr.ManifestMismatch = fmt.Sprintf("manifest says %d bytes / %d events, file has %d / %d",
						m.Bytes, m.Events, size, frames)
				} else if crc != m.CRC32C {
					sr.ManifestMismatch = fmt.Sprintf("manifest CRC %08x != file CRC %08x", m.CRC32C, crc)
				}
				if sr.ManifestMismatch != "" {
					manifestStale = true
				}
			} else if manifest != nil {
				sr.ManifestMismatch = "not in manifest"
				manifestStale = true
			}
		case scanErr == nil && fs.tmp:
			// Intact .tmp tail: the writer died between finishing a
			// frame and sealing. Finalize (or drop it if frameless).
			dirty = true
			if frames == 0 {
				sr.Removed = true
			} else {
				sr.Finalized = true
			}
		case scanErr != nil && !last:
			rep.Segments = append(rep.Segments, sr)
			return rep, fmt.Errorf("eventlog: sealed segment %s is corrupt past offset %d (%v); not repairable by tail truncation",
				sr.Name, valid, scanErr)
		default:
			// Torn tail (sealed legacy tail or .tmp): cut to the last
			// valid frame boundary.
			dirty = true
			sr.Truncated = true
			rep.DroppedBytes += size - valid
			if fs.tmp {
				if frames == 0 {
					sr.Removed = true
				} else {
					sr.Finalized = true
				}
			}
		}
		rep.Events += frames
		rep.Segments = append(rep.Segments, sr)
	}

	// The surviving segment set determines where a resumed writer opens.
	rep.NextSegment = 0
	for _, sr := range rep.Segments {
		if sr.Removed {
			continue
		}
		rep.NextSegment = sr.Index + 1
	}

	staleTmp := filepath.Join(dir, ManifestName+TmpSuffix)
	if _, err := os.Stat(staleTmp); err == nil {
		dirty = true
	}

	rep.Healthy = !dirty && !manifestStale
	if rep.Healthy || !apply {
		return rep, nil
	}

	// Apply repairs: fix files first, then rewrite the manifest to match.
	for _, sr := range rep.Segments {
		path := filepath.Join(dir, sr.Name)
		if sr.Removed {
			if err := os.Remove(path); err != nil {
				return rep, err
			}
			continue
		}
		if sr.Truncated {
			if err := truncateFile(path, sr.Valid); err != nil {
				return rep, err
			}
		}
		if sr.Finalized {
			final := strings.TrimSuffix(path, TmpSuffix)
			if err := os.Rename(path, final); err != nil {
				return rep, err
			}
		}
	}
	os.Remove(staleTmp)

	m := &Manifest{Version: ManifestVersion, NextSegment: rep.NextSegment}
	for _, sr := range rep.Segments {
		if sr.Removed {
			continue
		}
		name := strings.TrimSuffix(sr.Name, TmpSuffix)
		crc, err := fileCRC(filepath.Join(dir, name), sr.Valid)
		if err != nil {
			return rep, err
		}
		m.Segments = append(m.Segments, ManifestSegment{
			Name:   name,
			Bytes:  uint64(sr.Valid),
			Events: sr.Frames,
			CRC32C: crc,
		})
	}
	if err := writeManifest(dir, m, true); err != nil {
		return rep, err
	}
	if err := SyncDir(dir); err != nil {
		return rep, err
	}
	rep.Applied = true
	return rep, nil
}

// truncateFile cuts path to n bytes and fsyncs the result.
func truncateFile(path string, n int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := f.Truncate(n); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TruncateToSegment removes every segment (final or .tmp) at or above
// nextSegment and trims the manifest to match. Resuming from a
// checkpoint uses it to discard log data written after the checkpoint
// was taken.
func TruncateToSegment(dir string, nextSegment int) error {
	if nextSegment < 0 {
		return fmt.Errorf("eventlog: negative segment index %d", nextSegment)
	}
	found, err := listSegments(dir)
	if err != nil {
		return err
	}
	for _, fs := range found {
		if fs.idx >= nextSegment {
			if err := os.Remove(fs.path); err != nil {
				return err
			}
		}
	}
	m, err := ReadManifest(dir)
	if err != nil {
		return err
	}
	if m != nil {
		kept := m.Segments[:0]
		for _, s := range m.Segments {
			if idx, ok := SegmentIndex(s.Name); ok && idx < nextSegment {
				kept = append(kept, s)
			}
		}
		m.Segments = kept
		m.NextSegment = nextSegment
		if err := writeManifest(dir, m, true); err != nil {
			return err
		}
	}
	return SyncDir(dir)
}
