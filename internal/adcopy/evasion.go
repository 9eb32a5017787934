package adcopy

import (
	"strings"

	"repro/internal/stats"
)

// lookalikes maps ASCII letters to visually confusable substitutes
// ("we see every combination of words using lookalike characters (e.g. 'O'
// for '0', diacritics)" — §5.2.4). The detection package's canonicalizer
// inverts exactly these substitutions, making the evasion/detection pair
// adversarial but closed.
// Each substitute appears under exactly one base letter so that folding is
// an exact inverse.
var lookalikes = map[rune][]rune{
	'o': {'0', 'ó', 'ö'},
	'O': {'0', 'Ó', 'Ö'},
	'i': {'1', 'í', 'ï'},
	'l': {'|'},
	'e': {'3', 'é', 'è'},
	'a': {'á', 'à', '@'},
	's': {'5', '$'},
	'u': {'ú', 'ü'},
	'c': {'ç'},
	'n': {'ñ'},
}

// canonicalLookalike is the inverse of lookalikes: the fold that
// FuzzFoldLookalikes checks LookalikeTransform against, via FoldLookalikes.
var canonicalLookalike = map[rune]rune{}

func init() {
	for base, subs := range lookalikes {
		lower := base
		if base >= 'A' && base <= 'Z' {
			lower = base + ('a' - 'A')
		}
		for _, s := range subs {
			canonicalLookalike[s] = lower
		}
	}
}

// LookalikeTransform replaces a random subset of substitutable characters
// in s with lookalikes, producing text that reads the same to a user but
// no longer string-matches a blacklist entry.
func LookalikeTransform(rng *stats.RNG, s string) string {
	runes := []rune(s)
	changed := false
	for i, r := range runes {
		subs, ok := lookalikes[r]
		if !ok || !rng.Bool(0.35) {
			continue
		}
		runes[i] = subs[rng.Intn(len(subs))]
		changed = true
	}
	if !changed {
		// Guarantee at least one substitution when any position is
		// substitutable, so the transform is never a no-op on foldable text.
		for i, r := range runes {
			if subs, ok := lookalikes[r]; ok {
				runes[i] = subs[rng.Intn(len(subs))]
				break
			}
		}
	}
	return string(runes)
}

// FoldLookalikes maps lookalike characters back to their canonical ASCII
// letters and lower-cases the result. It is idempotent.
func FoldLookalikes(s string) string {
	runes := []rune(strings.ToLower(s))
	for i, r := range runes {
		if c, ok := canonicalLookalike[r]; ok {
			runes[i] = c
		}
	}
	return string(runes)
}

// phoneJunk is filler text injected into phone numbers to break naive
// pattern matches, e.g. 'CALL 1-800 (USA) 555 1000' (§5.2.4).
var phoneJunk = []string{" (USA) ", " . ", " CALL ", "(toll free)", " x ", "--"}

// ObfuscatePhone rewrites a phone number in an evasive format: digits are
// preserved in order, but separators are randomized and junk text may be
// injected between groups.
func ObfuscatePhone(rng *stats.RNG, number string) string {
	digits := DigitsOf(number)
	if len(digits) == 0 {
		return number
	}
	var b strings.Builder
	b.WriteString("CALL ")
	group := 0
	for i, d := range digits {
		b.WriteByte(d)
		group++
		if i == len(digits)-1 {
			break
		}
		if group >= 3 && rng.Bool(0.6) {
			group = 0
			if rng.Bool(0.4) {
				b.WriteString(phoneJunk[rng.Intn(len(phoneJunk))])
			} else {
				b.WriteByte(' ')
			}
		}
	}
	return b.String()
}

// DigitsOf extracts the decimal digits of s in order.
func DigitsOf(s string) []byte {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			out = append(out, s[i])
		}
	}
	return out
}
