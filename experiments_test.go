package repro

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsJudgedUnderSimGolden holds EXPERIMENTS.md to the world
// it describes. Its scorecard names the sim golden fingerprint it was
// judged under; when `make golden` moves that fingerprint, the
// fidelity record is stale until it is regenerated and re-judged.
func TestExperimentsJudgedUnderSimGolden(t *testing.T) {
	md, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("Judged under sim golden fingerprint `([0-9a-f]+)`").FindSubmatch(md)
	if m == nil {
		t.Fatal("EXPERIMENTS.md's scorecard names no sim golden fingerprint")
	}
	golden := filepath.Join("internal", "sim", "testdata", "tiny_seed7_digest.golden.json")
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var g struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint == "" {
		t.Fatalf("%s holds no fingerprint", golden)
	}
	if string(m[1]) != g.Fingerprint {
		t.Errorf("EXPERIMENTS.md was judged under sim golden fingerprint %s, but %s now reads %s. "+
			"Regenerate its body with `go run ./cmd/experiments -scale medium -subset 4000 -md FILE -svg figures`, "+
			"put it below the scorecard, re-judge the scorecard and update the fingerprint it names",
			m[1], golden, g.Fingerprint)
	}
}

// TestDesignReferencesResolve holds the Go files' citations of DESIGN.md
// to its text: a section number must name a "## N." heading, and a
// quoted title after the file name (or after its section number) must
// name a heading or a paragraph's bold lead, inside that section when
// one is given. Comment lines are joined first, so a citation may wrap.
func TestDesignReferencesResolve(t *testing.T) {
	md, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	// titles[n] holds section n's heading and its bold leads.
	titles := map[int][]string{}
	heading := regexp.MustCompile(`^## (\d+)\. (.+)$`)
	lead := regexp.MustCompile(`^\*\*([^*]+)\*\*`)
	section := 0
	for _, line := range strings.Split(string(md), "\n") {
		if m := heading.FindStringSubmatch(line); m != nil {
			section, _ = strconv.Atoi(m[1])
			titles[section] = append(titles[section], m[2])
		} else if m := lead.FindStringSubmatch(line); m != nil {
			titles[section] = append(titles[section], strings.TrimSuffix(m[1], "."))
		}
	}

	cite := regexp.MustCompile(`DESIGN\.md(?: §(\d+))?(?: "([^"]+)")?`)
	joinLines := regexp.MustCompile(`\s*\n\s*(?://\s*)?`)
	cites := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		text := joinLines.ReplaceAllString(string(src), " ")
		for _, m := range cite.FindAllStringSubmatch(text, -1) {
			cites++
			var want []string
			if m[1] != "" {
				n, _ := strconv.Atoi(m[1])
				if want = titles[n]; want == nil {
					t.Errorf("%s cites DESIGN.md §%s, which has no \"## %s.\" heading", path, m[1], m[1])
					continue
				}
			} else {
				for _, ts := range titles {
					want = append(want, ts...)
				}
			}
			if m[2] != "" && !slices.Contains(want, m[2]) {
				where := "DESIGN.md"
				if m[1] != "" {
					where += " §" + m[1]
				}
				t.Errorf("%s cites %q in %s, which has no heading or bold lead of that title", path, m[2], where)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cites == 0 {
		t.Fatal("no Go file cites DESIGN.md; the pattern has stopped matching")
	}
}
