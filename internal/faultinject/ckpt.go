package faultinject

// Checkpoint-corruption profiles for the disaster-recovery chaos suite:
// where ProcFaults kills a whole worker process, CkptFaults damages a
// checkpoint file on disk *after* the atomic write succeeded — the bit
// rot, torn truncation, and zero-filled pages real hardware produces
// between a run and its resume. The damage is a pure function of
// (injector seed, name, save index), so a given corruption sweep always
// hurts the same bytes and a failing case replays exactly.

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Checkpoint damage modes.
const (
	// CkptBitFlip flips a single bit — silent media rot, the kind a
	// whole-file CRC exists to catch.
	CkptBitFlip = "bitflip"
	// CkptTruncate cuts bytes off the tail — a partial fsync or a
	// filesystem that lost the last extent.
	CkptTruncate = "truncate"
	// CkptZeroFill overwrites a span with zero bytes — a page the disk
	// gave back empty.
	CkptZeroFill = "zerofill"
)

// CkptFaults configures one checkpoint-corruption profile. The zero
// value injects nothing.
type CkptFaults struct {
	// Mode is one of the Ckpt* damage modes ("" = none).
	Mode string
	// Offset is the damage site for bitflip/zerofill; < 0 draws a
	// seeded uniform offset over the file.
	Offset int64
	// Length is how many bytes CkptZeroFill clears (min 1) or
	// CkptTruncate removes from the tail; < 0 draws a seeded length.
	Length int64
	// CorruptSaveN, when > 0, arms OnSave so only the Nth saved
	// checkpoint is damaged (1-based); earlier and later saves pass
	// untouched. 0 means OnSave damages every save.
	CorruptSaveN int
}

// CkptInjector applies a CkptFaults profile deterministically. Corrupt
// damages a file now; OnSave counts checkpoint saves and damages only
// the armed one.
type CkptInjector struct {
	cfg   CkptFaults
	seed  uint64
	name  uint64
	saves uint64
}

// Ckpt derives a checkpoint-corruption injector from the profile.
// Damage sites are a pure function of (injector seed, name, save
// index), mirroring Route, Writer, and Proc.
func (in *Injector) Ckpt(name string, f CkptFaults) *CkptInjector {
	return &CkptInjector{cfg: f, seed: in.seed, name: stats.FNV1a(stats.FNVOffset, name)}
}

// OnSave counts one checkpoint save and, when the profile's armed save
// index matches (or CorruptSaveN is 0), damages the file at path. It
// reports whether damage was applied.
func (ci *CkptInjector) OnSave(path string) (bool, error) {
	ci.saves++
	if ci.cfg.Mode == "" {
		return false, nil
	}
	if ci.cfg.CorruptSaveN > 0 && ci.saves != uint64(ci.cfg.CorruptSaveN) {
		return false, nil
	}
	if err := ci.corrupt(path, ci.saves); err != nil {
		return false, err
	}
	return true, nil
}

// Corrupt damages the file at path per the profile, immediately.
func (ci *CkptInjector) Corrupt(path string) error {
	return ci.corrupt(path, 0)
}

func (ci *CkptInjector) corrupt(path string, save uint64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	out, err := CorruptBytes(data, ci.cfg, ci.seed^ci.name^(save*0x9e3779b97f4a7c15))
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// CorruptBytes applies a profile's damage to a byte slice (returned as
// a fresh slice; data is not modified). Seeded draws come from seed, so
// identical inputs always produce identical damage. An empty file is
// returned unchanged: there is nothing left to damage.
func CorruptBytes(data []byte, f CkptFaults, seed uint64) ([]byte, error) {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return out, nil
	}
	rng := stats.NewRNG(seed ^ 0x636b7074) // "ckpt"
	site := func(configured int64) int64 {
		if configured >= 0 && configured < int64(len(out)) {
			return configured
		}
		return int64(rng.Intn(len(out)))
	}
	switch f.Mode {
	case CkptBitFlip:
		off := site(f.Offset)
		out[off] ^= 1 << uint(rng.Intn(8))
	case CkptTruncate:
		n := f.Length
		if n <= 0 || n > int64(len(out)) {
			n = 1 + int64(rng.Intn(len(out)))
		}
		out = out[:int64(len(out))-n]
	case CkptZeroFill:
		off := site(f.Offset)
		n := f.Length
		if n <= 0 {
			n = 1 + int64(rng.Intn(64))
		}
		for i := off; i < off+n && i < int64(len(out)); i++ {
			out[i] = 0
		}
	case "":
		// no damage configured
	default:
		return nil, fmt.Errorf("faultinject: unknown checkpoint damage mode %q", f.Mode)
	}
	return out, nil
}

// ParseCkptFaults parses the compact checkpoint-corruption spec used by
// the corruption sweeps. Comma-separated clauses:
//
//	bitflip[@OFF]      flip one seeded bit (or a bit at byte OFF)
//	truncate[=N]       cut N tail bytes (seeded length when omitted)
//	zerofill[@OFF:N]   zero N bytes at OFF (both seeded when omitted)
//	save=N             damage only the Nth checkpoint save (1-based)
//
// The empty string parses to the zero (inject-nothing) profile.
func ParseCkptFaults(spec string) (CkptFaults, error) {
	f := CkptFaults{Offset: -1, Length: -1}
	if spec == "" {
		return CkptFaults{}, nil
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		switch {
		case clause == CkptBitFlip || clause == CkptTruncate || clause == CkptZeroFill:
			f.Mode = clause
		case strings.HasPrefix(clause, CkptBitFlip+"@"):
			off, err := strconv.ParseInt(strings.TrimPrefix(clause, CkptBitFlip+"@"), 10, 64)
			if err != nil || off < 0 {
				return f, fmt.Errorf("faultinject: bad bitflip clause %q", clause)
			}
			f.Mode, f.Offset = CkptBitFlip, off
		case strings.HasPrefix(clause, CkptTruncate+"="):
			n, err := strconv.ParseInt(strings.TrimPrefix(clause, CkptTruncate+"="), 10, 64)
			if err != nil || n < 1 {
				return f, fmt.Errorf("faultinject: bad truncate clause %q", clause)
			}
			f.Mode, f.Length = CkptTruncate, n
		case strings.HasPrefix(clause, CkptZeroFill+"@"):
			off, length, ok := strings.Cut(strings.TrimPrefix(clause, CkptZeroFill+"@"), ":")
			o, err1 := strconv.ParseInt(off, 10, 64)
			n, err2 := strconv.ParseInt(length, 10, 64)
			if !ok || err1 != nil || err2 != nil || o < 0 || n < 1 {
				return f, fmt.Errorf("faultinject: bad zerofill clause %q (want zerofill@OFF:N)", clause)
			}
			f.Mode, f.Offset, f.Length = CkptZeroFill, o, n
		case strings.HasPrefix(clause, "save="):
			n, err := strconv.Atoi(strings.TrimPrefix(clause, "save="))
			if err != nil || n < 1 {
				return f, fmt.Errorf("faultinject: bad save clause %q", clause)
			}
			f.CorruptSaveN = n
		default:
			return f, fmt.Errorf("faultinject: unknown checkpoint fault clause %q", clause)
		}
	}
	if f.Mode == "" {
		return f, fmt.Errorf("faultinject: checkpoint fault spec %q names no damage mode", spec)
	}
	return f, nil
}
