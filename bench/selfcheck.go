package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the self-check needs.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// readSpec finds BENCHMARK.json in the working directory or its parent:
// the benchmark is run from the root of a checkout, its tests from bench/.
func readSpec() (*spec, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// spread summarizes one metric over the processes of a self-check.
type spread struct {
	Unit          string    `json:"unit"`
	Values        []float64 `json:"values"`
	Min           float64   `json:"min"`
	Median        float64   `json:"median"`
	Max           float64   `json:"max"`
	RangeOverMed  float64   `json:"range_over_median"`
	IQROverMedian float64   `json:"iqr_over_median"`
	Bound         float64   `json:"bound"`
	Within        bool      `json:"within_bound"`
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (exclusive method), the
// rule the acceptance check uses.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		lo := int(pos)
		if lo < 1 {
			return sorted[0]
		}
		if lo >= n {
			return sorted[n-1]
		}
		return sorted[lo-1] + (pos-float64(lo))*(sorted[lo]-sorted[lo-1])
	}
	return at(0.25), at(0.75)
}

func newSpread(unit string, values []float64, bound float64) spread {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	sp := spread{Unit: unit, Values: values, Min: s[0], Max: s[len(s)-1], Bound: bound}
	if len(s)%2 == 1 {
		sp.Median = s[len(s)/2]
	} else {
		sp.Median = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	sp.RangeOverMed = (sp.Max - sp.Min) / sp.Median
	sp.IQROverMedian = (q3 - q1) / sp.Median
	sp.Within = sp.IQROverMedian <= bound
	return sp
}

// runSelfcheck runs every workload in n fresh processes, each with its own
// seed, and prints per end-to-end metric the spread of its values beside
// the metric's bound. It returns non-zero when a process failed or a
// spread exceeds its bound.
func runSelfcheck(cfg config, n int) int {
	sp, err := readSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	report := map[string]map[string]spread{}
	code := 0
	for _, wl := range sp.Workloads {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			seed := cfg.seed + int64(i)
			out, err := exec.Command(self, "-workload", wl.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-dir", cfg.dir).Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", wl.Name, seed, err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var last struct {
				Metrics map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", wl.Name, seed, err)
				return 1
			}
			for name, m := range last.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		report[wl.Name] = map[string]spread{}
		for _, m := range sp.EndToEnd {
			s := newSpread(m.Unit, values[m.Name], m.Bound)
			report[wl.Name][m.Name] = s
			fmt.Fprintf(os.Stderr, "%-18s %-20s min %10.3f  median %10.3f  max %10.3f  range %5.1f%%  iqr %5.1f%%  bound %4.0f%%\n",
				wl.Name, m.Name, s.Min, s.Median, s.Max, 100*s.RangeOverMed, 100*s.IQROverMedian, 100*s.Bound)
			if !s.Within {
				code = 1
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{"processes_per_workload": n, "first_seed": cfg.seed, "seconds": cfg.seconds, "spreads": report}) //nolint:errcheck // stdout
	return code
}
