package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Why a name that no non-test code reaches may stay. Every allowlist
// reason starts with one of these.
const (
	oracle      = "oracle: "       // a test compares the production path against it
	testSupport = "test support: " // fixtures and helpers that tests build on
	faultState  = "fault state: "  // observes fault-handling state that tests assert on
)

// unreachedAllowlist names the package-level objects under internal/ that
// stay although no non-test code reaches them, keyed as the guard prints
// them ("pkg.Name" or "pkg.Type.Method").
var unreachedAllowlist = map[string]string{
	"adcopy.FoldLookalikes":   oracle + "FuzzFoldLookalikes checks LookalikeTransform against this fold",
	"core.Subsets.AllSubsets": oracle + "the subset partition invariant of the façade and report golden tests",
	"dataset.ReadActivity":    oracle + "reads back the activity.jsonl export in its round-trip test",
	"platform.Matches":        oracle + "TestEligibleAppendLiveAgreesWithMatches checks the posting-list lookup against it (§5.3)",

	// The reference FRSNAP writer: the live column and checkpoint writers
	// are compared byte for byte against it. A restore never builds a
	// Snapshot (DecodeColumns fills a live platform), so only the oracle
	// and the tests' hostile frames reach the type.
	"platform.Snapshot":               oracle + "the flat platform the reference column writer writes (TestLiveColumnsMatchReference)",
	"platform.Platform.Snapshot":      oracle + "reference column writer (TestLiveColumnsMatchReference)",
	"platform.Snapshot.AppendColumns": oracle + "reference column writer (TestLiveColumnsMatchReference)",
	"platform.appendInts":             oracle + "helper of the reference column writer",
	"platform.appendFloats":           oracle + "helper of the reference column writer",
	"sim.Sim.Snapshot":                oracle + "reference checkpoint writer (the recorder's frames in internal/sim/record_test.go)",
	"sim.encodeCheckpoint":            oracle + "reference checkpoint writer (the recorder's frames in internal/sim/record_test.go)",

	"sim.WriteCheckpoint":            testSupport + "writes checkpoint fixtures for the sim, fraudsim and logtool tests",
	"sim.Lineage.Save":               testSupport + "saves reference-encoded checkpoints into a lineage for the lineage tests",
	"sim.Sim.SetPhaseTimes":          testSupport + "BenchmarkStepDay reads the per-phase times through it",
	"queries.Generator.UniverseFor":  testSupport + "the adserver and queries tests look up keyword universes by vertical",
	"eventlog.SliceSink":             testSupport + "in-memory sink for the eventlog and dataset tests",
	"eventlog.SliceSink.Append":      testSupport + "in-memory sink for the eventlog and dataset tests",
	"eventlog.SliceSink.AppendBatch": testSupport + "in-memory sink for the eventlog and dataset tests",

	"testutil.Golden":       testSupport + "golden-file helper",
	"testutil.GoldenString": testSupport + "golden-file helper",
	"testutil.GoldenJSON":   testSupport + "golden-file helper",
	"testutil.Diff":         testSupport + "golden-file helper",
	"testutil.Updating":     testSupport + "golden-file helper",
	"testutil.updateGolden": testSupport + "the -update-golden flag of the golden-file helpers",
	"testutil.maxDiffLines": testSupport + "bounds the golden-file helpers' diff output",

	// The checkpoint injector (sim and supervise crash tests).
	"faultinject.CkptFaults":           testSupport + "checkpoint injector",
	"faultinject.CkptBitFlip":          testSupport + "checkpoint injector",
	"faultinject.CkptTruncate":         testSupport + "checkpoint injector",
	"faultinject.CkptZeroFill":         testSupport + "checkpoint injector",
	"faultinject.ParseCkptFaults":      testSupport + "checkpoint injector",
	"faultinject.CkptInjector":         testSupport + "checkpoint injector",
	"faultinject.Injector.Ckpt":        testSupport + "checkpoint injector",
	"faultinject.CkptInjector.OnSave":  testSupport + "checkpoint injector",
	"faultinject.CkptInjector.Corrupt": testSupport + "checkpoint injector",
	"faultinject.CkptInjector.corrupt": testSupport + "checkpoint injector",
	"faultinject.CorruptBytes":         testSupport + "checkpoint injector",
	// The writer injector (eventlog, sim and adserver chaos tests).
	"faultinject.Injector.Writer":      testSupport + "writer injector",
	"faultinject.faultyWriter":         testSupport + "writer injector",
	"faultinject.faultyWriter.Write":   testSupport + "writer injector",
	"faultinject.ErrInjectedWrite":     testSupport + "writer injector",
	"faultinject.ErrInjectedCrash":     testSupport + "writer injector",
	"faultinject.WriterStats":          testSupport + "writer injector",
	"faultinject.Injector.WriterStats": testSupport + "writer injector",

	"eventlog.Writer.Dropped": faultState + "events a failed writer discarded, asserted by the sim and adserver chaos tests",
}

// TestUnreachedInternalNames keeps the internal packages' API to what
// non-test code uses: every package-level name under internal/ that no
// non-test code in this module or in bench/ reaches is either deleted or
// on unreachedAllowlist with a reason. An allowlist entry that is no
// longer unreached (its name gained a caller or was deleted) fails too.
func TestUnreachedInternalNames(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := loadModules(fset, []goModule{{".", "repro"}, {"bench", "repro/bench"}})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, u := range findUnreached(fset, pkgs) {
		found[u.name] = true
		if _, ok := unreachedAllowlist[u.name]; !ok {
			t.Errorf("%s: no non-test code reaches it; delete it or allowlist it with a reason", u)
		}
	}
	for name, why := range unreachedAllowlist {
		if !found[name] {
			t.Errorf("allowlist entry %s is stale: it no longer exists or non-test code now reaches it", name)
		}
		if !strings.HasPrefix(why, oracle) && !strings.HasPrefix(why, testSupport) && !strings.HasPrefix(why, faultState) {
			t.Errorf("allowlist entry %s: reason %q names none of the three categories", name, why)
		}
	}
}

// TestUnreachedGuardFixture runs the guard on a small module written from
// strings: an unused export and a name only a _test.go file calls are
// reported, and methods reached only through sort.Interface or
// http.Handler are not.
func TestUnreachedGuardFixture(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"internal/a/a.go": `package a

import (
	"net/http"
	"sort"
)

func Used() int { return helper() }

func helper() int { return 1 }

func Unused() {}

func TestOnly() {}

type byLen []string

func (s byLen) Len() int           { return len(s) }
func (s byLen) Less(i, j int) bool { return len(s[i]) < len(s[j]) }
func (s byLen) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

func Sort(s []string) { sort.Sort(byLen(s)) }

type handler struct{}

func (handler) ServeHTTP(http.ResponseWriter, *http.Request) {}

func (handler) Extra() {}

func Mux() http.Handler { return handler{} }
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestA(t *testing.T) { TestOnly() }
`,
		"cmd/tool/main.go": `package main

import "fx/internal/a"

func main() {
	a.Sort(nil)
	_ = a.Used()
	_ = a.Mux()
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fset := token.NewFileSet()
	pkgs, err := loadModules(fset, []goModule{{dir, "fx"}})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range findUnreached(fset, pkgs) {
		got = append(got, u.name)
	}
	want := []string{"a.Unused", "a.TestOnly", "a.handler.Extra"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("unreached = %v, want %v", got, want)
	}
}

// TestMakeCrashAndChaosSelectTheSimSweeps pins the Makefile's crash and
// chaos recipes to the internal/sim tests they exist to run: the
// kill-point sweep and the lineage sweeps under `make crash`, the two
// day-loop event-sink tests under `make chaos`. Each must still be
// declared in internal/sim and selected by its recipe's -run pattern,
// so a rename cannot silently empty a named subset.
func TestMakeCrashAndChaosSelectTheSimSweeps(t *testing.T) {
	declared := map[string]bool{}
	fset := token.NewFileSet()
	paths, err := filepath.Glob(filepath.Join("internal", "sim", "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				declared[fn.Name.Name] = true
			}
		}
	}
	runFlag := regexp.MustCompile(`-run '([^']*)'`)
	for target, tests := range map[string][]string{
		"crash": {"TestCrashResumeDigestIdentical", "TestCrashLineageCorruptionFallback", "TestCrashLineageCorruptSaveN"},
		"chaos": {"TestChaosFaultyEventSinkDayLoop", "TestChaosTornEventSinkDayLoop"},
	} {
		recipe := makeRecipe(t, target)
		m := runFlag.FindStringSubmatch(recipe)
		if m == nil || !strings.Contains(recipe+" ", " ./internal/sim ") {
			t.Errorf("make %s no longer runs internal/sim with a -run pattern: %q", target, recipe)
			continue
		}
		// go test matches a top-level test against the pattern's first
		// slash-separated element.
		run, err := regexp.Compile(strings.Split(m[1], "/")[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range tests {
			if !declared[name] {
				t.Errorf("internal/sim declares no %s, which make %s exists to run", name, target)
			} else if !run.MatchString(name) {
				t.Errorf("make %s runs -run %q, which does not select %s", target, m[1], name)
			}
		}
	}
}

// makeRecipe returns the Makefile recipe of target, up to the blank line
// that ends it.
func makeRecipe(t *testing.T, target string) string {
	t.Helper()
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(mk), "\n"+target+":\n")
	if !ok {
		t.Fatalf("Makefile has no %s target", target)
	}
	if end := strings.Index(recipe, "\n\n"); end >= 0 {
		recipe = recipe[:end]
	}
	return recipe
}

// TestMakePolicyWinsSelectsItsTest pins `make policy-wins` to the test
// it exists to run. That file builds only under the synctest
// experiment, so no plain `go test` compiles it, and a renamed test or
// a dropped GOEXPERIMENT would otherwise leave the step passing with
// no tests run.
func TestMakePolicyWinsSelectsItsTest(t *testing.T) {
	recipe := makeRecipe(t, "policy-wins")
	if !strings.Contains(recipe, "GOEXPERIMENT=synctest $(GO) test") || !strings.Contains(recipe, "-run TestRouterPolicyWins ./internal/loadgen") {
		t.Errorf("make policy-wins no longer runs TestRouterPolicyWins in internal/loadgen under GOEXPERIMENT=synctest: %q", recipe)
	}
	src, err := os.ReadFile(filepath.Join("internal", "loadgen", "policy_wins_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(src), "//go:build goexperiment.synctest\n") || !strings.Contains(string(src), "\nfunc TestRouterPolicyWins(t *testing.T) {") {
		t.Error("internal/loadgen/policy_wins_test.go no longer declares TestRouterPolicyWins under the synctest build tag")
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`\nverify:[^\n]* policy-wins[ \n]`).Match(mk) {
		t.Error("make verify no longer runs policy-wins")
	}
}
