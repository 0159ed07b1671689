package metrics

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 10, 50, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 1, 1} // ≤1: {0.5, 1}; ≤10: {2, 10}; ≤100: {50}; over: {1000}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Errorf("Count = %d, want 6", s.Count)
	}
	if math.Abs(s.Sum-1063.5) > 1e-9 {
		t.Errorf("Sum = %g, want 1063.5", s.Sum)
	}
	if math.Abs(s.Mean()-1063.5/6) > 1e-9 {
		t.Errorf("Mean = %g", s.Mean())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for i := 0; i < 90; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 9; i++ {
		h.Observe(5)
	}
	h.Observe(5000)
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %g, want 1", got)
	}
	if got := s.Quantile(0.95); got != 10 {
		t.Errorf("p95 = %g, want 10", got)
	}
	if got := s.Quantile(1.0); !math.IsInf(got, 1) {
		t.Errorf("p100 = %g, want +Inf (overflow bucket)", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
}

func TestHistogramBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-ascending bounds did not panic")
		}
	}()
	NewHistogram([]float64{1, 1})
}

func TestRegistryOutcomes(t *testing.T) {
	r := NewRegistry()
	r.ObserveQuery(time.Millisecond, 100, nil)
	r.ObserveQuery(time.Millisecond, 50, context.Canceled)
	r.ObserveQuery(2*time.Millisecond, 10, context.DeadlineExceeded)
	r.ObserveQuery(time.Microsecond, 0, errors.New("boom"))
	s := r.Snapshot()
	if s.OK != 1 || s.Canceled != 2 || s.Failed != 1 {
		t.Errorf("outcomes = %d ok, %d canceled, %d failed", s.OK, s.Canceled, s.Failed)
	}
	if s.Total() != 4 {
		t.Errorf("Total = %d", s.Total())
	}
	// All outcomes contribute to the work histograms.
	if s.Latency.Count != 4 || s.Reads.Count != 4 {
		t.Errorf("histogram counts = %d, %d, want 4, 4", s.Latency.Count, s.Reads.Count)
	}
	if s.Reads.Sum != 160 {
		t.Errorf("reads sum = %g, want 160", s.Reads.Sum)
	}
}

func TestSnapshotString(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 100; i++ {
		r.ObserveQuery(300*time.Microsecond, 2000, nil)
	}
	out := r.Snapshot().String()
	for _, want := range []string{"100 ok", "0 canceled", "0 failed", "p99", "reads:"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestCacheStats(t *testing.T) {
	r := NewRegistry()
	s := r.Snapshot()
	if s.HasCache || s.CacheHits != 0 || s.CacheMisses != 0 {
		t.Fatalf("unconnected registry reported cache stats: %+v", s)
	}
	if strings.Contains(s.String(), "cache:") {
		t.Error("String() printed a cache line without a cache")
	}

	hits, misses := uint64(0), uint64(0)
	r.SetCacheStatsFunc(func() (uint64, uint64) { return hits, misses })
	hits, misses = 75, 25
	s = r.Snapshot()
	if !s.HasCache || s.CacheHits != 75 || s.CacheMisses != 25 {
		t.Fatalf("cache snapshot = %+v, want 75/25", s)
	}
	out := s.String()
	if !strings.Contains(out, "75 hits") || !strings.Contains(out, "75.0% hit rate") {
		t.Errorf("String() cache line wrong:\n%s", out)
	}

	r.SetCacheStatsFunc(nil)
	if s = r.Snapshot(); s.HasCache {
		t.Error("disconnect did not clear HasCache")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.ObserveQuery(time.Millisecond, 7, nil)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.OK != workers*per {
		t.Errorf("OK = %d, want %d", s.OK, workers*per)
	}
	if s.Reads.Sum != float64(workers*per*7) {
		t.Errorf("reads sum = %g, want %d", s.Reads.Sum, workers*per*7)
	}
}

// TestHistogramConcurrentSum pins Observe's CAS loop on the float sum:
// a lost update under contention leaves Sum short of Count. Integral
// observations keep the float sum exact in any order. Many short rounds
// catch a lost update far more reliably than one long one: each round's
// goroutine starts are a fresh chance for two of them to interleave.
func TestHistogramConcurrentSum(t *testing.T) {
	const rounds, workers, per = 400, 8, 500
	for r := 0; r < rounds; r++ {
		h := NewHistogram([]float64{1})
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					h.Observe(1)
				}
			}()
		}
		wg.Wait()
		s := h.Snapshot()
		if s.Count != workers*per || s.Sum != workers*per {
			t.Fatalf("round %d: Count = %d, Sum = %g; want both %d", r, s.Count, s.Sum, workers*per)
		}
	}
}
