package cluster

// The cluster manifest makes a whole cluster run a durable, resumable
// artifact. The coordinator rewrites it atomically (tmp + fsync +
// rename + dir fsync, the §6 discipline) at spawn, at every day-barrier
// advance, and at completion, so whatever moment the coordinator dies,
// the run dir carries a consistent record of the run's shape and how
// far it provably got. `fraudcluster -resume` reads it back, refuses a
// spec that doesn't match the flags-derived one, and restarts the
// cluster from the workers' checkpoint lineages.
//
// Framing mirrors the FRSNAP checkpoint: magic "FRCMAN" + one version
// byte, uvarint payload length, payload, crc32c(payload) LE — but the
// payload is canonical JSON, not gob, because operators triage run dirs
// with their eyes and the manifest is small.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/eventlog"
)

// manifestMagic identifies a cluster manifest; the trailing byte is the
// format version.
var manifestMagic = []byte{'F', 'R', 'C', 'M', 'A', 'N', 1}

var manifestCRC = crc32.MakeTable(crc32.Castagnoli)

// ManifestName is the manifest's file name inside the cluster dir.
const ManifestName = "cluster.manifest"

// ManifestPath returns the manifest location for a cluster dir.
func ManifestPath(dir string) string {
	return filepath.Join(dir, ManifestName)
}

// RunSpec is the run-shape digest persisted in the manifest: every
// parameter that determines the deterministic trajectory or the on-disk
// layout. A resume with a different RunSpec is a different run and is
// refused — the analog of fraudsim's shape-override rejection.
type RunSpec struct {
	Shards          int     `json:"shards"`
	Scale           string  `json:"scale"`
	Seed            uint64  `json:"seed"`
	Days            int     `json:"days"`
	Queries         int     `json:"queries"`
	Regs            float64 `json:"regs"`
	Legit           int     `json:"legit"`
	CheckpointEvery int     `json:"checkpointEvery"`
	Sync            string  `json:"sync"`
}

// RunSpec extracts the shape digest from a worker spec (whose Shards
// the coordinator has already forced to the cluster's).
func (sp WorkerSpec) RunSpec() RunSpec {
	return RunSpec{
		Shards:          sp.Shards,
		Scale:           sp.Scale,
		Seed:            sp.Seed,
		Days:            sp.Days,
		Queries:         sp.Queries,
		Regs:            sp.Regs,
		Legit:           sp.Legit,
		CheckpointEvery: sp.CheckpointEvery,
		Sync:            sp.Sync,
	}
}

// ShardStatus is one shard's durable progress record.
type ShardStatus struct {
	// Gen counts spawned incarnations across every coordinator
	// incarnation (diagnostics: how hard has this shard's life been).
	Gen int `json:"gen"`
	// Completed is the highest day this shard has reported done; -1
	// before any.
	Completed int `json:"completed"`
	// Restarts counts restarts across coordinator incarnations.
	Restarts int `json:"restarts"`
}

// Manifest is the cluster run's durable state.
type Manifest struct {
	Spec RunSpec `json:"spec"`
	// Barrier is the last completed cluster barrier day: the minimum of
	// the shards' Completed at the last write (-1 before any). A resumed
	// coordinator rewinds to at most this day; workers rewind further,
	// to their own checkpoints.
	Barrier int           `json:"barrier"`
	Shards  []ShardStatus `json:"shards"`
	// Done and Digest record a completed, digest-verified run.
	Done   bool   `json:"done"`
	Digest string `json:"digest,omitempty"`
}

// EncodeManifest renders a manifest as its on-disk frame. The JSON
// payload is canonical (json.Marshal's deterministic field order), so
// identical manifests are byte-identical.
func EncodeManifest(m *Manifest) ([]byte, error) {
	if m == nil {
		return nil, fmt.Errorf("cluster: nil manifest")
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode manifest: %w", err)
	}
	var buf bytes.Buffer
	buf.Write(manifestMagic)
	var lenBuf [binary.MaxVarintLen64]byte
	buf.Write(lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(payload)))])
	buf.Write(payload)
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.Checksum(payload, manifestCRC))
	buf.Write(crcBuf[:])
	return buf.Bytes(), nil
}

// DecodeManifest validates and decodes manifest bytes: magic, version,
// declared length, and CRC are all checked before the JSON is parsed
// (the body of ReadManifest, split out for fuzzing).
func DecodeManifest(data []byte) (*Manifest, error) {
	if len(data) < len(manifestMagic) || !bytes.Equal(data[:len(manifestMagic)-1], manifestMagic[:len(manifestMagic)-1]) {
		return nil, fmt.Errorf("cluster: not a cluster manifest")
	}
	if v := data[len(manifestMagic)-1]; v != manifestMagic[len(manifestMagic)-1] {
		return nil, fmt.Errorf("cluster: unsupported manifest version %d", v)
	}
	rest := data[len(manifestMagic):]
	n, size := binary.Uvarint(rest)
	if size <= 0 {
		return nil, fmt.Errorf("cluster: corrupt manifest length")
	}
	rest = rest[size:]
	if n > uint64(len(rest)) {
		return nil, fmt.Errorf("cluster: manifest truncated: declares %d payload bytes, has %d", n, len(rest))
	}
	payload := rest[:n]
	tail := rest[n:]
	if len(tail) < 4 {
		return nil, fmt.Errorf("cluster: manifest missing CRC")
	}
	want := binary.LittleEndian.Uint32(tail[:4])
	if got := crc32.Checksum(payload, manifestCRC); got != want {
		return nil, fmt.Errorf("cluster: manifest CRC mismatch: %08x != %08x", got, want)
	}
	m := &Manifest{}
	if err := json.Unmarshal(payload, m); err != nil {
		return nil, fmt.Errorf("cluster: decode manifest: %w", err)
	}
	if m.Spec.Shards < 1 {
		return nil, fmt.Errorf("cluster: manifest names %d shards", m.Spec.Shards)
	}
	if len(m.Shards) != m.Spec.Shards {
		return nil, fmt.Errorf("cluster: manifest has %d shard records for %d shards", len(m.Shards), m.Spec.Shards)
	}
	if m.Barrier < -1 || m.Spec.Days > 0 && m.Barrier >= m.Spec.Days {
		return nil, fmt.Errorf("cluster: manifest barrier day %d out of range", m.Barrier)
	}
	return m, nil
}

// WriteManifest atomically rewrites the cluster manifest: staged at a
// temporary name, fsync'd, renamed over the target, directory fsync'd —
// a crash at any point leaves either the old manifest or the new one,
// never a torn hybrid.
func WriteManifest(dir string, m *Manifest) error {
	frame, err := EncodeManifest(m)
	if err != nil {
		return err
	}
	path := ManifestPath(dir)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return eventlog.SyncDir(dir)
}

// ReadManifest reads and validates the cluster manifest in dir. It is a
// pure read — safe to poll while a live coordinator is rewriting the
// manifest. A stale manifest.tmp from a crashed rewrite was never
// committed; it is ignored here and clobbered by the next WriteManifest
// (the coordinator writes immediately on start and on resume).
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(ManifestPath(dir))
	if err != nil {
		return nil, err
	}
	return DecodeManifest(data)
}
