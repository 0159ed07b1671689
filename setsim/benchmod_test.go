package setsim_test

import (
	"os/exec"
	"path/filepath"
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
