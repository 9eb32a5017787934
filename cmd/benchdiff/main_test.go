package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runDiff(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestUsageErrors(t *testing.T) {
	if code, _, errw := runDiff(t, "old.jsonl", "new.jsonl"); code != 2 || !strings.Contains(errw, "usage") {
		t.Fatalf("two files without -pairs accepted: exit %d, err %q", code, errw)
	}
	if code, _, _ := runDiff(t, "-old", "a.json", "-new", "b.json"); code != 2 {
		t.Fatalf("the removed -old/-new mode accepted: exit %d", code)
	}
}
