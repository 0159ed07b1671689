package main

import (
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/setsim"
)

func TestTapeHashFollowsSeed(t *testing.T) {
	hash := func(seed int64) uint64 {
		w, err := newWorkload("durable-ingest", seed, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		return w.tape.hash(w.corpus)
	}
	if a, b := hash(7), hash(7); a != b {
		t.Errorf("same seed gave tapes %016x and %016x", a, b)
	}
	if a, b := hash(7), hash(8); a == b {
		t.Errorf("seeds 7 and 8 gave the same tape %016x", a)
	}
}

// The estimator must recover the base value of every slot when 40 % of
// the samples are inflated 1.6×, the shape of the machine noise measured
// on the build box.
func TestCleanLatencyRecoversBase(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const slots, laps, warm = 500, 10, 1
	tp := &tape{}
	lat := newLaptimes(slots, laps)
	base := make([]float64, slots)
	for i := 0; i < slots; i++ {
		tp.slots = append(tp.slots, slot{class: opSelect})
		base[i] = float64(5000 + rng.Intn(100000))
		for lap := 0; lap < laps; lap++ {
			v := base[i] * (1 + 0.02*rng.Float64())
			if rng.Float64() < 0.4 {
				v *= 1.6
			}
			lat.set(i, lap, int64(v))
		}
	}
	sort.Float64s(base)
	cl := cleanByClass(tp, lat, warm)
	for _, p := range []float64{50, 95} {
		got, want := percentile(cl[opSelect], p), percentile(base, p)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("p%.0f of clean latencies = %.0f, base %.0f", p, got, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		v    []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{7}, 95, 7},
		{[]float64{1, 2}, 50, 1},
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 95, 10},
		{ten, 100, 10},
		{ten, 0.001, 1},
	} {
		if got := percentile(c.v, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.v, c.p, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %g, %g; want 1.5, 12", q1, q3)
	}
}

// smoke runs one workload at a twentieth of its size.
func smoke(t *testing.T, name string, trace, corrupt bool) *result {
	t.Helper()
	res, err := runWorkload(config{workload: name, seed: 3, seconds: 1, scale: 0.05, trace: trace, dir: t.TempDir(), corruptOracle: corrupt})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Every metric BENCHMARK.json names must come out of every workload
// exactly once, with its unit; end-to-end metrics are never 0; no
// operation fails.
func TestSmokeReportsEveryMetric(t *testing.T) {
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloadNames))
	}
	for _, wl := range sp.Workloads {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel() // two at a time: the box has two cores
			res := smoke(t, wl.Name, true, false)
			if res.tally.failed != 0 || res.tally.attempted == 0 {
				t.Errorf("%d of %d operations failed: %v", res.tally.failed, res.tally.attempted, res.tally.samples)
			}
			if len(res.endToEnd) != len(sp.EndToEnd) {
				t.Errorf("reports %d end-to-end metrics, BENCHMARK.json names %d", len(res.endToEnd), len(sp.EndToEnd))
			}
			for _, m := range sp.EndToEnd {
				got, ok := res.endToEnd[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: reported %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
				}
				if !(got.Value > 0) {
					t.Errorf("end-to-end %s = %g, must be positive", m.Name, got.Value)
				}
			}
			if len(res.perLayer) != len(sp.PerLayer) {
				t.Errorf("reports %d per-layer metrics, BENCHMARK.json names %d", len(res.perLayer), len(sp.PerLayer))
			}
			for _, m := range sp.PerLayer {
				if got, ok := res.perLayer[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: reported %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
				}
			}
			if wl.Name == "clustered-sharded" {
				if r := res.perLayer["route.prune_ratio"].Value; r <= 0 || r >= 1 {
					t.Errorf("route.prune_ratio = %g: selections must both skip and visit shards", r)
				}
			}
		})
	}
}

// A wrong expectation must surface as failed operations and a non-zero
// exit code.
func TestCorruptOracleFails(t *testing.T) {
	res := smoke(t, "words-select", false, true)
	if res.tally.failed == 0 {
		t.Fatal("a corrupted oracle expectation went unnoticed")
	}
	if code := emit(io.Discard, res); code == 0 {
		t.Error("emit returned exit code 0 for a run with failed operations")
	}
}

// The oracle accepts what rounding can do to an answer — tied sets in
// either order, another set tied with a top-k's last rank — and nothing
// else.
func TestSameResults(t *testing.T) {
	r := func(id setsim.SetID, score float64) setsim.Result { return setsim.Result{ID: id, Score: score} }
	const ulp = 1e-16
	want := []setsim.Result{r(1, 0.9), r(5, 0.7+ulp), r(3, 0.7), r(8, 0.6)}
	for _, c := range []struct {
		name string
		got  []setsim.Result
		topk bool
		same bool
	}{
		{"identical", want, false, true},
		{"tie swapped", []setsim.Result{r(1, 0.9), r(3, 0.7), r(5, 0.7), r(8, 0.6)}, false, true},
		{"other set at the last rank of a top-k", []setsim.Result{r(1, 0.9), r(3, 0.7), r(5, 0.7), r(9, 0.6-ulp)}, true, true},
		{"other set at the last rank of a selection", []setsim.Result{r(1, 0.9), r(3, 0.7), r(5, 0.7), r(9, 0.6)}, false, false},
		{"other set above the last rank", []setsim.Result{r(1, 0.9), r(4, 0.7), r(5, 0.7), r(8, 0.6)}, true, false},
		{"score off", []setsim.Result{r(1, 0.9), r(5, 0.7), r(3, 0.7), r(8, 0.61)}, true, false},
		{"ids swapped across scores", []setsim.Result{r(5, 0.9), r(1, 0.7), r(3, 0.7), r(8, 0.6)}, true, false},
		{"one short", want[:3], true, false},
	} {
		if got := sameResults(c.got, want, c.topk); got != c.same {
			t.Errorf("%s: sameResults = %v, want %v", c.name, got, c.same)
		}
	}
}
