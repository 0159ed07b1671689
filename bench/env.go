package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// header describes the machine, the build and the inputs, so that two
// result files can be checked for comparability before their numbers are.
func header(cfg config, w *workload, run map[string]any) map[string]any {
	h := map[string]any{
		"workload":   w.name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"scale":      cfg.scale,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     readTrimmed("/proc/sys/kernel/osrelease"),
		"commit":     gitCommit(),
		"clients":    1,
		"loop":       "closed",
		"shape":      w.shape,
	}
	for k, v := range run {
		h[k] = v
	}
	return h
}

func readTrimmed(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// gitCommit reads the checked-out commit from the enclosing repository's
// files, without running git; a checkout that is not a repository has
// none.
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		head := readTrimmed(filepath.Join(dir, ".git", "HEAD"))
		if head != "unknown" {
			if ref, ok := strings.CutPrefix(head, "ref: "); ok {
				return readTrimmed(filepath.Join(dir, ".git", ref))
			}
			return head
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

// fsType names the filesystem holding dir: the mount with the longest
// mount point that prefixes it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	mounts, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// writtenBytes is the process's cumulative write-syscall volume (wchar
// of /proc/self/io): what the store handed to the kernel, whether or not
// the device has seen it yet.
func writtenBytes() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("wchar: ")); ok {
			n, _ := strconv.ParseInt(string(rest), 10, 64) //nolint:errcheck // 0 on a malformed line
			return n
		}
	}
	return 0
}
