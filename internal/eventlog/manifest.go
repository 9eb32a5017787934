package eventlog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ManifestName is the sealed-segment manifest inside a log directory.
const ManifestName = "manifest.json"

// ManifestVersion is the current manifest format version.
const ManifestVersion = 1

// ManifestSegment records one sealed segment: its final name, exact
// size, frame count, and whole-file Castagnoli CRC. Recovery uses it to
// cross-check sealed segments without trusting the file system alone.
type ManifestSegment struct {
	Name   string `json:"name"`
	Bytes  uint64 `json:"bytes"`
	Events uint64 `json:"events"`
	CRC32C uint32 `json:"crc32c"`
}

// Manifest is the durable record of a log directory's sealed segments.
// It is rewritten atomically at every seal; the active .tmp segment is
// never listed. Logs written before manifests existed simply have none —
// readers and recovery treat the manifest as corroborating metadata, not
// the source of truth (the frames' own CRCs are).
type Manifest struct {
	Version     int               `json:"version"`
	NextSegment int               `json:"next_segment"`
	Segments    []ManifestSegment `json:"segments"`
}

// ReadManifest loads a directory's manifest. A missing manifest is not
// an error: it returns (nil, nil) so legacy logs keep working.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("eventlog: corrupt manifest: %w", err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("eventlog: unsupported manifest version %d", m.Version)
	}
	return m, nil
}

// writeManifest atomically replaces the manifest: staged at a temporary
// name, optionally fsynced, then renamed into place.
func writeManifest(dir string, m *Manifest, sync bool) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	path := filepath.Join(dir, ManifestName)
	tmp := path + TmpSuffix
	if err := StageFile(tmp, data, sync); err != nil {
		return err
	}
	return CommitFile(tmp, path, sync)
}

// StageFile is the first half of an atomic file replacement, shared by
// the durable layers (manifest, checkpoints): it writes data to path
// (truncating), fsyncs the file when sync is set, and closes it. The file
// is removed on any failure, so a half-written staging file never
// survives its own error path.
func StageFile(path string, data []byte, sync bool) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// CommitFile is the second half: it renames the staged file tmp over
// path and, when sync is set, fsyncs the directory so the rename survives
// power loss. A failed rename removes tmp.
func CommitFile(tmp, path string, sync bool) error {
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if sync {
		return SyncDir(filepath.Dir(path))
	}
	return nil
}

// SegmentIndex parses a segment index out of a segment file name (final
// or .tmp), e.g. "events-00003.evlog" -> 3.
func SegmentIndex(name string) (int, bool) {
	name = strings.TrimSuffix(filepath.Base(name), TmpSuffix)
	var idx int
	if _, err := fmt.Sscanf(name, SegmentPattern, &idx); err != nil || idx < 0 {
		return 0, false
	}
	if name != fmt.Sprintf(SegmentPattern, idx) {
		return 0, false
	}
	return idx, true
}

// SyncDir fsyncs a directory so renames into it survive power loss. It
// is the one directory-sync helper of the durable layers (event log,
// checkpoints). Errors opening the directory are ignored on platforms
// where directories cannot be opened for sync; a failed sync is
// returned.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
