package par

import (
	"sync/atomic"
	"testing"
)

// TestChunksCoverInOrder: the chunks are contiguous, in order, never
// empty while there are items, and cover [0, n) once — with more workers
// than items, one worker, and no items.
func TestChunksCoverInOrder(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{4, 0}, {4, 3}, {1, 10}, {3, 10}, {8, 1000}, {0, 5}} {
		k := NumChunks(tc.workers, tc.n)
		lo, hi := make([]int, k), make([]int, k)
		Chunks(tc.workers, tc.n, "test", func(c, l, h int) { lo[c], hi[c] = l, h })
		next := 0
		for c := range lo {
			if lo[c] != next || (tc.n > 0 && hi[c] <= lo[c]) {
				t.Fatalf("workers %d, n %d: chunk %d is [%d, %d), want it to start at %d and hold an item", tc.workers, tc.n, c, lo[c], hi[c], next)
			}
			next = hi[c]
		}
		if next != tc.n {
			t.Fatalf("workers %d, n %d: chunks end at %d", tc.workers, tc.n, next)
		}
	}
}

// TestEachVisitsOnce: every item runs exactly once.
func TestEachVisitsOnce(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{4, 0}, {4, 3}, {2, 8}, {1, 5}} {
		seen := make([]atomic.Int32, tc.n)
		Each(tc.workers, tc.n, "test", func(i int) { seen[i].Add(1) })
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("workers %d, n %d: item %d ran %d times", tc.workers, tc.n, i, got)
			}
		}
	}
}
