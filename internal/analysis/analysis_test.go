package analysis

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// Corpus files mark expected diagnostics with trailing comments:
//
//	expr // want "regexp"
//
// Running an analyzer over a corpus must produce, for every want, one
// diagnostic on that line whose message matches the pattern — and no
// diagnostics anywhere else. Patterns use `.` where the message
// contains quotes.
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// One loader is shared by all corpus tests: the source importer's
// type-checked stdlib packages are memoized per loader, and every
// corpus needs a handful of them (context, sync, os, fmt).
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func corpusLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loader
}

type wantMark struct {
	re      *regexp.Regexp
	raw     string
	line    int
	matched bool
}

func collectWants(t *testing.T, dir string) map[string][]*wantMark {
	t.Helper()
	wants := map[string][]*wantMark{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", e.Name(), i+1, m[1], err)
				}
				wants[e.Name()] = append(wants[e.Name()], &wantMark{re: re, raw: m[1], line: i + 1})
			}
		}
	}
	return wants
}

func testCorpus(t *testing.T, a *Analyzer, dirname string) {
	l := corpusLoader(t)
	dir := filepath.Join("testdata", dirname)
	pkg, err := l.CheckDir("repro/internal/analysis/testdata/"+dirname, dir)
	if err != nil {
		t.Fatalf("corpus %s does not load: %v", dirname, err)
	}
	diags := RunPackage(a, pkg)
	wants := collectWants(t, dir)
	for _, d := range diags {
		file := filepath.Base(d.Pos.Filename)
		found := false
		for _, w := range wants[file] {
			if !w.matched && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for file, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", file, w.line, w.raw)
			}
		}
	}
}

// testCorpusSuite is testCorpus for the whole suite run through RunAll:
// annotation-liveness findings only exist when the per-package
// annotation table is shared across every analyzer.
func testCorpusSuite(t *testing.T, dirname string) {
	l := corpusLoader(t)
	dir := filepath.Join("testdata", dirname)
	pkg, err := l.CheckDir("repro/internal/analysis/testdata/"+dirname, dir)
	if err != nil {
		t.Fatalf("corpus %s does not load: %v", dirname, err)
	}
	diags := RunAll([]*Package{pkg}, Analyzers())
	wants := collectWants(t, dir)
	for _, d := range diags {
		file := filepath.Base(d.Pos.Filename)
		found := false
		for _, w := range wants[file] {
			if !w.matched && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for file, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", file, w.line, w.raw)
			}
		}
	}
}

func TestCtxPollCorpus(t *testing.T)    { testCorpus(t, CtxPoll, "ctxpoll") }
func TestCtxPollLaxCorpus(t *testing.T) { testCorpus(t, CtxPoll, "ctxpoll_lax") }
func TestLockScopeCorpus(t *testing.T)  { testCorpus(t, LockScope, "lockscope") }
func TestStdlibOnlyCorpus(t *testing.T) { testCorpus(t, StdlibOnly, "stdlibonly") }
func TestStatsAcctCorpus(t *testing.T)  { testCorpus(t, StatsAcct, "statsacct") }
func TestAnnLiveCorpus(t *testing.T)    { testCorpusSuite(t, "annlive") }

// The whole-module load is shared by the cleanliness and self-check
// tests: type-checking the module once is expensive enough.
var (
	moduleOnce sync.Once
	modulePkgs []*Package
	moduleErr  error
)

func modulePackages(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	moduleOnce.Do(func() {
		l, err := NewLoader(".")
		if err != nil {
			moduleErr = err
			return
		}
		modulePkgs, moduleErr = l.LoadAll()
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return modulePkgs
}

// TestModuleHasNoDiagnostics is the in-process twin of the ssvet CI
// gate: the repository's own tree must be clean under the full suite.
func TestModuleHasNoDiagnostics(t *testing.T) {
	for _, d := range RunAll(modulePackages(t), Analyzers()) {
		t.Errorf("module not clean: %s", d)
	}
}

// TestModuleVets runs go vet over the module. Its copylocks check owns
// the typed atomics (atomic.Uint64, atomic.Pointer[T], ...): each
// carries a noCopy marker, so a copy of one, or of a struct or array
// holding one, is reported, and a copied atomic is a field that a
// concurrent writer no longer updates. The module makes no
// function-style sync/atomic call, so no plain access to an atomic
// field is possible either.
func TestModuleVets(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	cmd := exec.Command(gobin, "vet", "./...")
	cmd.Dir = filepath.Join("..", "..")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./...: %v\n%s", err, out)
	}
}

// TestSelfCheckCoverage pins the CI self-check: the module walk must
// include the analyzer engine and the ssvet command themselves, so the
// gate analyzes its own implementation rather than silently skipping it.
func TestSelfCheckCoverage(t *testing.T) {
	want := map[string]bool{
		"repro/internal/analysis": false,
		"repro/cmd/ssvet":         false,
		"repro/internal/core":     false,
	}
	for _, p := range modulePackages(t) {
		if _, ok := want[p.Path]; ok {
			want[p.Path] = true
		}
	}
	for path, seen := range want {
		if !seen {
			t.Errorf("module walk misses %s; the ssvet gate would not analyze it", path)
		}
	}
}

// TestAnalyzerBudget guards the suite's cost: one RunAll builds the
// call graph exactly once — every analyzer shares it — and the full
// suite over a corpus package finishes well inside an interactive
// budget.
func TestAnalyzerBudget(t *testing.T) {
	l := corpusLoader(t)
	pkg, err := l.CheckDir("repro/internal/analysis/testdata/statsacct_budget", filepath.Join("testdata", "statsacct"))
	if err != nil {
		t.Fatal(err)
	}
	before := callGraphBuilds
	start := time.Now()
	RunAll([]*Package{pkg}, Analyzers())
	if got := callGraphBuilds - before; got != 1 {
		t.Errorf("RunAll built the call graph %d times; want exactly 1 shared build", got)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("full suite over one corpus package took %v; cost budget is 30s", d)
	}
}
