package faultinject

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCkptFaultsParseFormatRoundTrip pins the corruption spec syntax:
// each spec parses to exactly its profile.
func TestCkptFaultsParseFormatRoundTrip(t *testing.T) {
	cases := []struct {
		spec string
		want CkptFaults
	}{
		{"", CkptFaults{}},
		{"bitflip", CkptFaults{Mode: CkptBitFlip, Offset: -1, Length: -1}},
		{"bitflip@12", CkptFaults{Mode: CkptBitFlip, Offset: 12, Length: -1}},
		{"truncate", CkptFaults{Mode: CkptTruncate, Offset: -1, Length: -1}},
		{"truncate=9", CkptFaults{Mode: CkptTruncate, Offset: -1, Length: 9}},
		{"zerofill", CkptFaults{Mode: CkptZeroFill, Offset: -1, Length: -1}},
		{"zerofill@32:16", CkptFaults{Mode: CkptZeroFill, Offset: 32, Length: 16}},
		{"bitflip,save=2", CkptFaults{Mode: CkptBitFlip, Offset: -1, Length: -1, CorruptSaveN: 2}},
		{"zerofill@0:4,save=3", CkptFaults{Mode: CkptZeroFill, Offset: 0, Length: 4, CorruptSaveN: 3}},
	}
	for _, c := range cases {
		got, err := ParseCkptFaults(c.spec)
		if err != nil {
			t.Errorf("ParseCkptFaults(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseCkptFaults(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

// TestCkptFaultsParseRejectsBadSpecs: malformed clauses are errors, not
// silently-zero profiles.
func TestCkptFaultsParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"bitflip@-1",    // negative offset
		"bitflip@x",     // non-numeric offset
		"truncate=0",    // must cut at least one byte
		"zerofill@4",    // missing length
		"zerofill@4:0",  // zero length
		"zerofill@-2:4", // negative offset
		"save=0",        // save index is 1-based
		"save=2",        // save clause without a damage mode
		"explode",       // unknown clause
	} {
		if _, err := ParseCkptFaults(spec); err == nil {
			t.Errorf("ParseCkptFaults(%q): want error, got nil", spec)
		}
	}
}

// TestCorruptBytesDeterministic: identical (data, profile, seed) always
// damages identical bytes; a different seed damages different bytes
// (for seeded-site profiles over a large enough file).
func TestCorruptBytesDeterministic(t *testing.T) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 31)
	}
	for _, mode := range []string{CkptBitFlip, CkptTruncate, CkptZeroFill} {
		f := CkptFaults{Mode: mode, Offset: -1, Length: -1}
		a, err := CorruptBytes(data, f, 42)
		if err != nil {
			t.Fatalf("CorruptBytes(%s): %v", mode, err)
		}
		b, err := CorruptBytes(data, f, 42)
		if err != nil {
			t.Fatalf("CorruptBytes(%s): %v", mode, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed produced different damage", mode)
		}
		if bytes.Equal(a, data) {
			t.Errorf("%s: no damage applied", mode)
		}
		c, err := CorruptBytes(data, f, 43)
		if err != nil {
			t.Fatalf("CorruptBytes(%s): %v", mode, err)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds produced identical damage", mode)
		}
	}
}

// TestCorruptBytesModes pins each mode's observable effect: bitflip
// changes exactly one byte, truncate only shortens, zerofill zeroes the
// configured span in place.
func TestCorruptBytesModes(t *testing.T) {
	data := bytes.Repeat([]byte{0xff}, 256)

	flip, err := CorruptBytes(data, CkptFaults{Mode: CkptBitFlip, Offset: 7, Length: -1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range data {
		if flip[i] != data[i] {
			diff++
			if i != 7 {
				t.Errorf("bitflip@7 damaged byte %d", i)
			}
		}
	}
	if diff != 1 {
		t.Errorf("bitflip changed %d bytes, want 1", diff)
	}

	trunc, err := CorruptBytes(data, CkptFaults{Mode: CkptTruncate, Offset: -1, Length: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trunc) != len(data)-10 || !bytes.Equal(trunc, data[:len(data)-10]) {
		t.Errorf("truncate=10: got %d bytes, want prefix of %d", len(trunc), len(data)-10)
	}

	zero, err := CorruptBytes(data, CkptFaults{Mode: CkptZeroFill, Offset: 100, Length: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range zero {
		want := byte(0xff)
		if i >= 100 && i < 108 {
			want = 0
		}
		if zero[i] != want {
			t.Errorf("zerofill@100:8: byte %d = %#x, want %#x", i, zero[i], want)
		}
	}

	// Empty input: nothing to damage, returned unchanged.
	if out, err := CorruptBytes(nil, CkptFaults{Mode: CkptBitFlip, Offset: -1}, 1); err != nil || len(out) != 0 {
		t.Errorf("empty input: got (%v, %v), want empty", out, err)
	}
}

// TestCkptInjectorOnSaveArming: with save=N only the Nth save is
// damaged; earlier and later saves pass through byte-identical.
func TestCkptInjectorOnSaveArming(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt")
	orig := []byte("FRSNAP-ish bytes long enough to damage somewhere")

	ci := New(99).Ckpt("shard-0", CkptFaults{Mode: CkptBitFlip, Offset: -1, CorruptSaveN: 2})
	for save := 1; save <= 3; save++ {
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		hit, err := ci.OnSave(path)
		if err != nil {
			t.Fatalf("OnSave #%d: %v", save, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if save == 2 {
			if !hit || bytes.Equal(got, orig) {
				t.Errorf("save #2: want damage, hit=%v changed=%v", hit, !bytes.Equal(got, orig))
			}
		} else if hit || !bytes.Equal(got, orig) {
			t.Errorf("save #%d: want untouched, hit=%v changed=%v", save, hit, !bytes.Equal(got, orig))
		}
	}
}

// TestCkptInjectorCorruptDeterministicPerName: same injector seed and
// name damage a file identically across constructions; a different name
// picks a different site.
func TestCkptInjectorCorruptDeterministicPerName(t *testing.T) {
	dir := t.TempDir()
	orig := make([]byte, 2048)
	for i := range orig {
		orig[i] = byte(i)
	}
	damage := func(name string) []byte {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := New(7).Ckpt(name, CkptFaults{Mode: CkptZeroFill, Offset: -1, Length: -1}).Corrupt(path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a1, a2, b := damage("shard-0"), damage("shard-0"), damage("shard-1")
	if !bytes.Equal(a1, a2) {
		t.Error("same name damaged differently across constructions")
	}
	if bytes.Equal(a1, b) {
		t.Error("different names damaged identically")
	}
}
