// Package par runs the independent pieces of a build stage side by
// side: the documents of a tokenizing round or a partition pass in
// contiguous chunks, the shards of a round one by one. Every piece runs
// under pprof labels naming its stage (and shard), so
// `go tool pprof -tagfocus stage=tokenize` splits a build profile by
// layer. Queries never come through here and stay unlabelled.
package par

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// NumChunks is the number of chunks Chunks cuts n items into: workers,
// but never more than n and never fewer than one.
func NumChunks(workers, n int) int {
	return max(1, min(workers, n))
}

// Chunks cuts [0, n) into NumChunks(workers, n) contiguous chunks of
// near-equal length, in order, and calls fn(c, lo, hi) for chunk c =
// [lo, hi), each chunk on its own goroutine labelled stage=<stage>. It
// returns when every chunk has. A single chunk runs on the calling
// goroutine.
func Chunks(workers, n int, stage string, fn func(c, lo, hi int)) {
	k := NumChunks(workers, n)
	run := func(c int) {
		pprof.Do(context.Background(), pprof.Labels("stage", stage), func(context.Context) {
			fn(c, c*n/k, (c+1)*n/k)
		})
	}
	if k == 1 {
		run(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for c := 1; c < k; c++ {
		go func() {
			defer wg.Done()
			run(c)
		}()
	}
	run(0)
	wg.Wait()
}

// Each calls fn(i) for every i in [0, n) on NumChunks(workers, n)
// goroutines, which take the items in index order; item i runs labelled
// stage=<stage> and shard=i. It returns when every item has.
func Each(workers, n int, stage string, fn func(i int)) {
	var next atomic.Int64
	Chunks(workers, n, stage, func(int, int, int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			pprof.Do(context.Background(), pprof.Labels("stage", stage, "shard", strconv.Itoa(i)), func(context.Context) {
				fn(i)
			})
		}
	})
}
