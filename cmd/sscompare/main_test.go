package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fakeRun serves canned results: value(dir, seed) is the run's "lat"
// metric, and fail names the (dir, seed) runs that report a failed
// operation. It records the order of the calls.
type fakeRun struct {
	value func(dir string, seed int64) float64
	fail  map[string]bool
	calls []string
}

func (f *fakeRun) run(dir, workload string, seed int64, seconds float64) (runResult, error) {
	key := dir + "/" + string(rune('0'+seed))
	f.calls = append(f.calls, key)
	var res runResult
	if err := json.Unmarshal([]byte(fmt.Sprintf(`{"correct":true,"metrics":{"lat":{"value":%g,"unit":"us"},"mb":{"value":10,"unit":"MB"}}}`,
		f.value(dir, seed))), &res); err != nil {
		return res, err
	}
	if f.fail[key] {
		res.Correct, res.Failed = false, 3
	}
	res.Machine = machine{Nproc: 2, Go: "go1.0", Kernel: dir}
	return res, nil
}

var testMetrics = []metric{{Name: "lat", Better: "lower", Bound: 0.25}, {Name: "mb", Better: "lower", Bound: 0.04}}

func TestCompareAlternatesSides(t *testing.T) {
	f := &fakeRun{value: func(string, int64) float64 { return 1 }}
	cfg := config{refDir: "ref", changeDir: "chg", workloads: []string{"w"}, metrics: testMetrics, pairs: 4, seed: 1}
	if code, err := compare(cfg, f.run, io.Discard, io.Discard); code != 0 || err != nil {
		t.Fatalf("compare = %d, %v", code, err)
	}
	want := "chg/1 ref/1 ref/2 chg/2 chg/3 ref/3 ref/4 chg/4"
	if got := strings.Join(f.calls, " "); got != want {
		t.Errorf("run order %q, want %q", got, want)
	}
}

func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want quartiles
	}{
		{[]float64{5}, quartiles{5, 5, 5}},
		{[]float64{4, 1, 3, 2}, quartiles{1.75, 2.5, 3.25}},
		{[]float64{9, 1, 5, 3, 7}, quartiles{3, 5, 7}},
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, quartiles{3.25, 5.5, 7.75}},
	} {
		if got := quartilesOf(c.xs); got != c.want {
			t.Errorf("quartilesOf(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lat := testMetrics[0]
	ref := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}
	for _, c := range []struct {
		name    string
		m       metric
		chg     []float64
		won     int
		verdict string
	}{
		// 9 of 10 won, the 10th a tie: a gain.
		{"gain", lat, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 101}, 9, "gain"},
		// 8 of 10 won by a wide margin is not enough.
		{"too few pairs", lat, []float64{80, 81, 79, 80, 82, 78, 80, 81, 120, 120}, 8, "within bound"},
		// Won every pair but by less than the reference's IQR.
		{"inside the IQR", lat, []float64{99, 101, 97, 100, 98, 99, 102, 96, 99, 100}, 10, "within bound"},
		{"worse", lat, []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}, 0, "WORSE than bound"},
		// Higher is better: the same numbers are a loss.
		{"higher is better", metric{Name: "ops", Better: "higher", Bound: 0.1}, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, 0, "WORSE than bound"},
		// A spread wider than the bound leaves the metric open.
		{"unresolved", metric{Name: "mb", Better: "lower", Bound: 0.01}, []float64{90, 110, 95, 105, 100, 100, 90, 110, 95, 105}, 4, "unresolved"},
	} {
		v := judge(c.m, ref, c.chg)
		if v.won != c.won || v.verdict != c.verdict {
			t.Errorf("%s: won %d, verdict %q; want %d, %q", c.name, v.won, v.verdict, c.won, c.verdict)
		}
	}
}

func TestCompareReportsFailedRun(t *testing.T) {
	f := &fakeRun{
		value: func(dir string, seed int64) float64 {
			return map[string]float64{"chg": 80, "ref": 100}[dir] + float64(seed)
		},
		fail: map[string]bool{"ref/2": true},
	}
	path := filepath.Join(t.TempDir(), "history.json")
	cfg := config{refDir: "ref", changeDir: "chg", workloads: []string{"w"}, metrics: testMetrics, pairs: 3, seed: 1, record: path}
	var out, log strings.Builder
	code, err := compare(cfg, f.run, &out, &log)
	if err != nil || code != 1 {
		t.Fatalf("compare = %d, %v; want exit 1 for the failed run", code, err)
	}
	var rows []historyRow
	if raw, err := os.ReadFile(path); err != nil || json.Unmarshal(raw, &rows) != nil || len(rows) != 1 || rows[0].IncorrectRuns != 1 {
		t.Errorf("recorded %+v (%v), want one row with one incorrect run", rows, err)
	}
	if !strings.Contains(log.String(), "w reference seed 2: correct=false, 3 failed operations") {
		t.Errorf("failed run not reported:\n%s", log.String())
	}
	// Every pair still counts: 81/82/83 against 101/102/103, which
	// three pairs cannot call a gain.
	if !strings.Contains(out.String(), "| `lat` | 102 (101.5/102.5) | 82 (81.5/82.5) | 0.804× | 3/3 | too few pairs |") {
		t.Errorf("table:\n%s", out.String())
	}
}

// TestRecordAppendsRows runs two compares with -record on one file: the
// file must stay one JSON array, hold the first row unchanged and the
// second after it, and each row must read back as the compare wrote it,
// with the machine of the first change run's header.
func TestRecordAppendsRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.json")
	f := &fakeRun{value: func(dir string, seed int64) float64 {
		return map[string]float64{"chg": 80, "ref": 100}[dir] + float64(seed)
	}}
	cfg := config{refDir: "ref", changeDir: "chg", workloads: []string{"w", "v"}, metrics: testMetrics, pairs: 3, seed: 1,
		seconds: 2, record: path, change: "worktree", changeParent: "abc", refCommit: "def"}
	if code, err := compare(cfg, f.run, io.Discard, io.Discard); code != 0 || err != nil {
		t.Fatalf("first compare = %d, %v", code, err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.seed, cfg.change, cfg.changeParent = 11, "abd", ""
	if code, err := compare(cfg, f.run, io.Discard, io.Discard); code != 0 || err != nil {
		t.Fatalf("second compare = %d, %v", code, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 4 || !strings.HasPrefix(string(raw), strings.TrimSuffix(strings.TrimSuffix(string(first), "\n"), "\n]")) {
		t.Fatalf("history after two compares:\n%s\nafter one:\n%s", raw, first)
	}
	var rows []historyRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	want := historyRow{Change: "worktree", ChangeParent: "abc", Ref: "def", Seed: 1, Pairs: 3, Seconds: 2,
		Machine: machine{Nproc: 2, Go: "go1.0", Kernel: "chg"}}
	// Seeds 1–3: the change's runs are 81/82/83, the reference's 101/102/103.
	lat := metricEntry{Name: "lat", Ref: [3]float64{101.5, 102, 102.5}, Change: [3]float64{81.5, 82, 82.5}, Won: 3, Verdict: "too few pairs"}
	mb := metricEntry{Name: "mb", Ref: [3]float64{10, 10, 10}, Change: [3]float64{10, 10, 10}, Won: 0, Verdict: "within bound"}
	for _, wl := range []string{"w", "v"} {
		want.Workloads = append(want.Workloads, workloadEntry{Name: wl, Metrics: []metricEntry{lat, mb}})
	}
	if !reflect.DeepEqual(rows[0], want) {
		t.Errorf("first row\n%+v\nwant\n%+v", rows[0], want)
	}
	if rows[1].Seed != 11 || rows[1].Change != "abd" || rows[1].ChangeParent != "" || rows[1].Workloads[0].Metrics[0].Ref[1] != 112 {
		t.Errorf("second row %+v", rows[1])
	}
	for i, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSuffix(lines[i+1], ","); got != string(line) {
			t.Errorf("row %d does not round-trip:\n%s\n%s", i, got, line)
		}
	}
}

// TestCompareNeedsTenPairsForGain: a change that wins every pair by a
// wide margin is a gain at ten pairs and "too few pairs" below — one pair
// has a reference IQR of 0, and with nine one lost pair is a tenth.
func TestCompareNeedsTenPairsForGain(t *testing.T) {
	f := &fakeRun{value: func(dir string, seed int64) float64 {
		return map[string]float64{"chg": 80, "ref": 100}[dir] + float64(seed%3)
	}}
	for _, c := range []struct {
		pairs   int
		verdict string
	}{{1, "too few pairs"}, {9, "too few pairs"}, {10, "gain"}} {
		cfg := config{refDir: "ref", changeDir: "chg", workloads: []string{"w"}, metrics: testMetrics, pairs: c.pairs, seed: 1}
		var out strings.Builder
		if code, err := compare(cfg, f.run, &out, io.Discard); code != 0 || err != nil {
			t.Fatalf("%d pairs: compare = %d, %v", c.pairs, code, err)
		}
		row := fmt.Sprintf("| %d/%d | %s |", c.pairs, c.pairs, c.verdict)
		if !strings.Contains(out.String(), row) {
			t.Errorf("%d pairs: want a row ending %q in\n%s", c.pairs, row, out.String())
		}
	}
}

// TestHistory records four compares through the fake runner — three
// changes on one line of commits and one on a side branch, the last of
// the line compared twice — and reads the history since the line's
// first commit back through a fake git: the products must take the
// second and third changes, the repeated compare once, by its last row.
func TestHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.json")
	// The line a → b → c → d, and the side branch a → x.
	parent := map[string]string{"b": "a", "c": "b", "d": "c", "x": "a"}
	isAncestor := func(a, b string) (bool, error) {
		for ; b != ""; b = parent[b] {
			if a == b {
				return true, nil
			}
		}
		return false, nil
	}
	record := func(change, changeParent, ref string, chg float64) {
		t.Helper()
		f := &fakeRun{value: func(dir string, seed int64) float64 {
			return map[string]float64{"chg": chg, "ref": 100}[dir]
		}}
		cfg := config{refDir: "ref", changeDir: "chg", workloads: []string{"w"}, metrics: testMetrics, pairs: 1, seed: 1,
			record: path, change: change, changeParent: changeParent, refCommit: ref}
		if code, err := compare(cfg, f.run, io.Discard, io.Discard); code != 0 || err != nil {
			t.Fatalf("compare = %d, %v", code, err)
		}
	}
	record("b", "", "a", 50)        // b's change, before the history starts
	record("c", "", "b", 80)        // counted
	record("x", "", "a", 10)        // another line
	record("worktree", "c", "c", 1) // d while uncommitted, superseded
	record("worktree", "c", "c", 90)
	var out strings.Builder
	if err := history(path, "b", isAncestor, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"| w | `lat` | 2 | 0.720× |", "| w | `mb` | 2 | 1.000× |"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("want %q in\n%s", want, out.String())
		}
	}
}
