package setsim_test

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestBenchModule vets and tests the nested benchmark module, which
// compiles against this package and internal/invlist and internal/collection
// but which the root module's ./... does not reach, so a change to the
// exported surface that breaks the benchmark fails here too. It runs the
// benchmark module's own smoke tests and edits nothing under bench/.
func TestBenchModule(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "./..."}} {
		cmd := exec.Command(gobin, args...)
		cmd.Dir = filepath.Join("..", "bench")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in bench/: %v\n%s", args[0], err, out)
		}
	}
}

// TestCIPatternsNameTests holds every -run and -fuzz pattern of the CI
// workflow to the tests that exist: each alternative of each pattern
// must match a Test or Fuzz function somewhere in the repository. go test
// passes a pattern that matches nothing with a warning, which is how a
// renamed or retired suite drops out of CI unnoticed.
func TestCIPatternsNameTests(t *testing.T) {
	root := ".."
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	var names []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	patterns := regexp.MustCompile(`-(?:run|fuzz) '([^']*)'`).FindAllSubmatch(ci, -1)
	if len(patterns) == 0 {
		t.Fatal("no -run or -fuzz pattern in ci.yml")
	}
	for _, m := range patterns {
		for _, alt := range alternatives(string(m[1])) {
			if alt == "^$" { // matches nothing on purpose, beside -bench
				continue
			}
			re, err := regexp.Compile(strings.SplitN(alt, "/", 2)[0])
			if err != nil {
				t.Errorf("ci.yml pattern %q: %v", m[1], err)
				continue
			}
			matched := false
			for _, n := range names {
				if re.MatchString(n) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("ci.yml pattern %q: %q names no test", m[1], alt)
			}
		}
	}
}

// alternatives splits a pattern at its top-level '|'s.
func alternatives(pat string) []string {
	var out []string
	depth, start := 0, 0
	for i, c := range pat {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, pat[start:i])
				start = i + 1
			}
		}
	}
	return append(out, pat[start:])
}
