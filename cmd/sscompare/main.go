// Command sscompare runs the benchmark on a reference commit and on the
// working tree in alternated pairs and prints, per workload and
// end-to-end metric, the paired verdict: both medians, the reference's
// quartiles, the pairs the change won, and whether the change is a gain,
// worse than the metric's bound, or unresolved.
//
// Usage (from anywhere inside the repository):
//
//	sscompare [-ref HEAD] [-workloads clustered-sharded,words-select]
//	          [-pairs 10] [-seed 1] [-seconds 20] [-record BENCH_HISTORY.json]
//
// The reference is `git archive <ref>` extracted into a temporary
// directory; the change is the working tree. Pair p runs seed+p on both
// sides, the change first on even p and the reference first on odd p.
// Each run is `bash bench/run.sh --workload W --seed S --seconds N
// --trace 0` in its side's directory, and its last output line is the
// result. The metrics, their direction and their bounds are the
// end-to-end list of the working tree's BENCHMARK.json; -workloads
// defaults to all of its workloads.
//
// A gain is the rule of a paired claim: the change wins at least nine
// tenths of the pairs (ties count for neither side) and the medians
// differ by more than the reference's interquartile range. A change
// median worse than the reference's by more than the bound is flagged
// WORSE. Where either side's interquartile range is wider than the
// bound the metric is "unresolved", unless every change run beat every
// reference run. The command exits 1 when any run was incorrect or
// failed an operation, and 2 when a run could not be made or read.
//
// -record FILE appends the compare to FILE, a JSON array with one row per
// line (see historyRow): both commits, the seeds, pairs and seconds, the
// machine as the first change run's header names it, and per workload
// and metric both medians, both quartile pairs, the pairs won and the
// verdict. A change/ref ratio taken in alternated pairs is comparable
// across machine phases where absolute numbers are not, so a chain of
// rows is the trajectory. A compare that cannot be made records nothing.
package main

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// metric is one end-to-end metric of BENCHMARK.json.
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmark is the part of BENCHMARK.json the compare reads.
type benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

// runResult is the last line a benchmark run prints, with the machine
// fields of the header line it prints first.
type runResult struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	Machine machine `json:"-"`
}

// machine is what a run's header says of the machine and the toolchain.
type machine struct {
	Nproc  int    `json:"nproc"`
	Go     string `json:"go"`
	Kernel string `json:"kernel"`
}

// historyRow is one compare as -record appends it.
type historyRow struct {
	Change string `json:"change"` // the change's commit, or "worktree" when it has uncommitted edits
	// ChangeParent is the commit an uncommitted worktree sits on.
	ChangeParent string  `json:"change_parent,omitempty"`
	Ref          string  `json:"ref"` // the reference's commit
	Seed         int64   `json:"seed"`
	Pairs        int     `json:"pairs"`
	Seconds      float64 `json:"seconds"`
	Machine      machine `json:"machine"`
	// IncorrectRuns counts the runs, of either side, that were incorrect
	// or failed an operation: the compare's exit status 1.
	IncorrectRuns int             `json:"incorrect_runs,omitempty"`
	Workloads     []workloadEntry `json:"workloads"`
}

// workloadEntry is one workload's table of a historyRow.
type workloadEntry struct {
	Name    string        `json:"name"`
	Metrics []metricEntry `json:"metrics"`
}

// metricEntry is one metric's verdict as the table prints it.
type metricEntry struct {
	Name    string     `json:"name"`
	Ref     [3]float64 `json:"ref"`    // Q1, median, Q3
	Change  [3]float64 `json:"change"` // Q1, median, Q3
	Won     int        `json:"won"`
	Verdict string     `json:"verdict"`
}

func (r runResult) value(name string) float64 { return r.Metrics[name].Value }

// runner runs one benchmark of the checkout in dir.
type runner func(dir, workload string, seed int64, seconds float64) (runResult, error)

type config struct {
	refDir, changeDir string
	workloads         []string
	metrics           []metric
	pairs             int
	seed              int64
	seconds           float64
	// record, when set, is the history file the compare is appended to,
	// with its commits as commitsOf found them.
	record                          string
	change, changeParent, refCommit string
}

func main() {
	ref := flag.String("ref", "HEAD", "git revision to compare the working tree against")
	workloads := flag.String("workloads", "", "comma-separated workloads (default: every workload in BENCHMARK.json)")
	pairs := flag.Int("pairs", 10, "alternated pairs per workload")
	seed := flag.Int64("seed", 1, "seed of the first pair; pair p runs seed+p")
	seconds := flag.Float64("seconds", 20, "length of each run's measured replay")
	record := flag.String("record", "", "append the compare as one row to this JSON history file")
	flag.Parse()
	if *pairs < 1 {
		fmt.Fprintln(os.Stderr, "sscompare: -pairs must be at least 1")
		os.Exit(2)
	}
	code, err := run(*ref, *workloads, config{pairs: *pairs, seed: *seed, seconds: *seconds, record: *record})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sscompare:", err)
	}
	os.Exit(code)
}

// run sets up both checkouts and compares them.
func run(ref, workloads string, cfg config) (int, error) {
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return 2, fmt.Errorf("finding the repository root: %w", err)
	}
	cfg.changeDir = strings.TrimSpace(string(top))
	if cfg.record != "" {
		if cfg.change, cfg.changeParent, cfg.refCommit, err = commitsOf(cfg.changeDir, ref); err != nil {
			return 2, err
		}
	}
	raw, err := os.ReadFile(filepath.Join(cfg.changeDir, "BENCHMARK.json"))
	if err != nil {
		return 2, err
	}
	var b benchmark
	if err := json.Unmarshal(raw, &b); err != nil {
		return 2, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	cfg.metrics = b.EndToEnd
	if workloads != "" {
		cfg.workloads = strings.Split(workloads, ",")
	} else {
		for _, w := range b.Workloads {
			cfg.workloads = append(cfg.workloads, w.Name)
		}
	}
	cfg.refDir, err = os.MkdirTemp("", "sscompare-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(cfg.refDir)
	if err := archive(cfg.changeDir, ref, cfg.refDir); err != nil {
		return 2, err
	}
	return compare(cfg, benchRun, os.Stdout, os.Stderr)
}

// commitsOf names the two sides of a compare: the commit checked out in
// top, or "worktree" and that commit when top has uncommitted changes or
// untracked files, and the commit ref resolves to.
func commitsOf(top, ref string) (change, parent, refCommit string, err error) {
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = top
		out, err := cmd.Output()
		if err != nil {
			return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
		}
		return strings.TrimSpace(string(out)), nil
	}
	if refCommit, err = git("rev-parse", "--verify", ref+"^{commit}"); err != nil {
		return
	}
	if change, err = git("rev-parse", "HEAD"); err != nil {
		return
	}
	status, err := git("status", "--porcelain")
	if err == nil && status != "" {
		change, parent = "worktree", change
	}
	return
}

// archive extracts `git archive ref` of the repository at top into dst.
func archive(top, ref, dst string) error {
	cmd := exec.Command("git", "archive", "--format=tar", ref)
	cmd.Dir = top
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("git archive %s: %w: %s", ref, err, strings.TrimSpace(stderr.String()))
	}
	tr := tar.NewReader(bytes.NewReader(out))
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("git archive %s: %w", ref, err)
		}
		path := filepath.Join(dst, filepath.FromSlash(h.Name))
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeReg:
			var data []byte
			if data, err = io.ReadAll(tr); err == nil {
				if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
					err = os.WriteFile(path, data, os.FileMode(h.Mode).Perm())
				}
			}
		}
		if err != nil {
			return err
		}
	}
}

// benchRun is the real runner: bench/run.sh in dir, its last line parsed,
// and the machine read off its header line. A run whose operations failed
// exits non-zero and still prints its result, so the exit status alone is
// not an error.
func benchRun(dir, workload string, seed int64, seconds float64) (runResult, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res runResult
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil || res.Metrics == nil {
		return res, fmt.Errorf("%s seed %d in %s: no result line (%v)", workload, seed, dir, errors.Join(err, jerr))
	}
	for _, line := range lines {
		var h struct {
			Header *machine `json:"header"`
		}
		if json.Unmarshal([]byte(line), &h) == nil && h.Header != nil {
			res.Machine = *h.Header
			break
		}
	}
	return res, nil
}

// compare runs cfg.pairs alternated pairs per workload and prints one
// table per workload to w, progress to log. With cfg.record set it then
// appends the compare to that file.
func compare(cfg config, runOne runner, w, log io.Writer) (int, error) {
	code := 0
	row := historyRow{Change: cfg.change, ChangeParent: cfg.changeParent, Ref: cfg.refCommit,
		Seed: cfg.seed, Pairs: cfg.pairs, Seconds: cfg.seconds}
	for _, wl := range cfg.workloads {
		ref := make([]runResult, cfg.pairs)
		chg := make([]runResult, cfg.pairs)
		for p := 0; p < cfg.pairs; p++ {
			seed := cfg.seed + int64(p)
			sides := []struct {
				name, dir string
				dst       *runResult
			}{{"change", cfg.changeDir, &chg[p]}, {"reference", cfg.refDir, &ref[p]}}
			if p%2 == 1 {
				sides[0], sides[1] = sides[1], sides[0]
			}
			for _, s := range sides {
				res, err := runOne(s.dir, wl, seed, cfg.seconds)
				if err != nil {
					return 2, err
				}
				fmt.Fprintf(log, "%s seed %d %s:", wl, seed, s.name)
				for _, m := range cfg.metrics {
					fmt.Fprintf(log, " %s=%.4g", m.Name, res.value(m.Name))
				}
				fmt.Fprintln(log)
				if !res.Correct || res.Failed > 0 {
					fmt.Fprintf(log, "%s %s seed %d: correct=%v, %d failed operations\n", wl, s.name, seed, res.Correct, res.Failed)
					code = 1
					row.IncorrectRuns++
				}
				*s.dst = res
			}
		}
		if row.Machine == (machine{}) {
			row.Machine = chg[0].Machine
		}
		entry := workloadEntry{Name: wl}
		fmt.Fprintf(w, "\n%s, %d pairs, seeds %d–%d\n\n", wl, cfg.pairs, cfg.seed, cfg.seed+int64(cfg.pairs)-1)
		fmt.Fprintln(w, "| metric | reference median (Q1/Q3) | change median (Q1/Q3) | change/ref | pairs won | verdict |")
		fmt.Fprintln(w, "|---|---:|---:|---:|---:|---|")
		for _, m := range cfg.metrics {
			v := judge(m, column(ref, m.Name), column(chg, m.Name))
			fmt.Fprintf(w, "| `%s` | %.4g (%.4g/%.4g) | %.4g (%.4g/%.4g) | %.3f× | %d/%d | %s |\n",
				m.Name, v.ref.med, v.ref.q1, v.ref.q3, v.chg.med, v.chg.q1, v.chg.q3, v.chg.med/v.ref.med, v.won, cfg.pairs, v.verdict)
			entry.Metrics = append(entry.Metrics, metricEntry{Name: m.Name,
				Ref: [3]float64{v.ref.q1, v.ref.med, v.ref.q3}, Change: [3]float64{v.chg.q1, v.chg.med, v.chg.q3},
				Won: v.won, Verdict: v.verdict})
		}
		row.Workloads = append(row.Workloads, entry)
	}
	if cfg.record != "" {
		if err := appendHistory(cfg.record, row); err != nil {
			return 2, err
		}
	}
	return code, nil
}

// appendHistory appends row to the JSON array in path, creating the file
// if it does not exist. Rows already there are kept byte for byte, one to
// a line.
func appendHistory(path string, row historyRow) error {
	var rows []json.RawMessage
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(raw, &rows); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	line, err := json.Marshal(row)
	if err != nil {
		return err
	}
	rows = append(rows, line)
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, r := range rows {
		b.Write(r)
		if i < len(rows)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func column(rs []runResult, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.value(name)
	}
	return out
}

// quartiles are the first quartile, median and third quartile of a
// sample, each interpolated linearly between the closest ranks.
type quartiles struct{ q1, med, q3 float64 }

func quartilesOf(xs []float64) quartiles {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return quartiles{at(0.25), at(0.5), at(0.75)}
}

type verdict struct {
	ref, chg quartiles
	won      int
	verdict  string
}

// judge applies the paired rules to one metric: ref[p] and chg[p] are
// pair p's two runs.
func judge(m metric, ref, chg []float64) verdict {
	better := func(a, b float64) bool { // a better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	v := verdict{ref: quartilesOf(ref), chg: quartilesOf(chg)}
	for p := range ref {
		if better(chg[p], ref[p]) {
			v.won++
		}
	}
	allBetter := slices.Max(chg) < slices.Min(ref)
	if m.Better == "higher" {
		allBetter = slices.Min(chg) > slices.Max(ref)
	}
	gap := v.chg.med - v.ref.med
	worse := gap > m.Bound*v.ref.med
	if m.Better == "higher" {
		worse = -gap > m.Bound*v.ref.med
	}
	unresolved := !allBetter &&
		(v.ref.q3-v.ref.q1 > m.Bound*v.ref.med || v.chg.q3-v.chg.q1 > m.Bound*v.chg.med)
	switch {
	case 10*v.won >= 9*len(ref) && better(v.chg.med, v.ref.med) && math.Abs(gap) > v.ref.q3-v.ref.q1:
		v.verdict = "gain"
	case worse && unresolved:
		v.verdict = "WORSE than bound, unresolved"
	case worse:
		v.verdict = "WORSE than bound"
	case unresolved:
		v.verdict = "unresolved"
	default:
		v.verdict = "within bound"
	}
	return v
}
