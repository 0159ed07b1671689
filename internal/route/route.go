// Package route implements similarity-aware corpus partitioning and the
// per-shard summaries that let the scatter-gather executor skip whole
// shards on sound bounds — the fan-out-to-few layer over PR 5's
// fan-out-to-all sharding.
//
// Partition is a deterministic greedy k-means-style clusterer over
// document token signatures (the LES3 idea of data-aware partitions,
// without the learned model): documents sharing high-idf tokens land in
// the same shard, so a query's tokens concentrate in few shards and the
// others' summaries prove them skippable. Summary captures what a shard
// can possibly score: its set-length range (Theorem 1's currency), a
// hashed token-universe sketch over internal/kernel bitmap Sets with
// per-slot maximum weight caps, and — per McCauley–Mikkelsen's skew
// treatment — the corpus's hottest high-df tokens held out of the sketch
// in exact dedicated bitmaps with exact caps, so one token appearing in
// 90% of documents cannot saturate the sketch slots the tail tokens
// prune with.
//
// Everything here is build/compaction-time machinery except CapFor,
// which the executor calls per query token per shard and therefore
// stays allocation-free.
package route

import (
	"runtime"
	"slices"

	"repro/internal/par"
	"repro/internal/tokenize"
)

const (
	// sigLen is the number of strongest (highest-idf) tokens kept in a
	// document's clustering signature. Rare tokens identify a document's
	// topic; frequent ones appear everywhere and carry no routing signal.
	sigLen = 8
	// iterations bounds the Lloyd rounds; assignment usually stabilizes
	// in two or three on clustered data and the loop exits early when a
	// round moves nothing.
	iterations = 4
)

// Partition assigns every document to one of k clusters and returns the
// assignment vector. docs[i] holds document i's distinct token ids
// (ascending); idf[t] is token t's global idf weight. The clustering is
// greedy k-means over sparse signatures with a per-cluster capacity cap
// (~25% above the even share) so no shard degenerates. A centroid keeps
// every token of its members' signatures, so a topic's whole vocabulary
// pulls its documents together. Every step — seeding, sums, tie-breaks —
// is deterministic: the same documents in the same order always produce
// the same partition, which is what lets a live engine's full compaction
// reproduce the static build's routing bit for bit. Partition runs on
// runtime.GOMAXPROCS(0) workers; see PartitionWorkers.
func Partition(docs [][]tokenize.Token, idf []float64, k int) []int32 {
	return PartitionWorkers(docs, idf, k, runtime.GOMAXPROCS(0))
}

// PartitionWorkers is Partition on the given number of workers, with
// the same result for every count. Signatures and each iteration's dot
// products are computed side by side, in contiguous chunks of
// documents, and the centroid rebuild sums the clusters side by side,
// each in document order; the capacity pass, which depends on order,
// stays on one goroutine in document order.
func PartitionWorkers(docs [][]tokenize.Token, idf []float64, k, workers int) []int32 {
	n := len(docs)
	assign := make([]int32, n)
	if k <= 1 || n == 0 {
		return assign
	}

	sigs := make([][]tokenize.Token, n)
	par.Chunks(workers, n, "partition", func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sigs[i] = signature(docs[i], idf)
		}
	})

	// Capacity ~25% above the even share: k·capPer ≥ n always holds, so
	// the assignment loop can never find every cluster full.
	capPer := n/k + n/(4*k) + 1

	// Deterministic seeding: k evenly spaced documents donate their
	// signatures as the initial centroids.
	cents := newCentroids(k, sigs, len(idf))
	for j := 0; j < k; j++ {
		for _, t := range sigs[j*n/k] {
			cents.weights(t)[j] = idf[t]
		}
	}

	// pref[i] is document i's preferred cluster: the first maximal dot
	// product over every cluster, full or not, or -1 when no centroid
	// shares a token with it.
	pref := make([]int32, n)
	counts := make([]int, k)
	dots := make([]float64, k)
	for it := 0; it < iterations; it++ {
		par.Chunks(workers, n, "partition", func(_, lo, hi int) {
			dots := make([]float64, k)
			for i := lo; i < hi; i++ {
				cents.score(dots, sigs[i], idf)
				pref[i] = -1
				for j, dot := range dots {
					if dot > 0 && (pref[i] < 0 || dot > dots[pref[i]]) {
						pref[i] = int32(j)
					}
				}
			}
		})
		for j := range counts {
			counts[j] = 0
		}
		moved := 0
		for i, p := range pref {
			// An open preferred cluster is also the first maximum among the
			// open clusters, which is what the capacity pass picks; a full
			// one sends the document back to be scored against the open
			// clusters alone.
			best := int(p)
			switch {
			case p < 0:
				best = leastLoaded(counts, capPer)
			case counts[p] >= capPer:
				cents.score(dots, sigs[i], idf)
				best = openBest(dots, counts, capPer)
			}
			if assign[i] != int32(best) {
				assign[i] = int32(best)
				moved++
			}
			counts[best]++
		}
		if moved == 0 || it == iterations-1 {
			break
		}
		cents.rebuild(sigs, assign, counts, idf, workers)
	}
	return assign
}

// score sets dots[j] to the dot product of sig with centroid j. Every
// cluster's dot accumulates over the signature in the same order, zero
// terms included (a token outside every support reads the all-zero
// row), so each sum is the one a per-cluster loop over sparse centroids
// would produce, bit for bit.
func (c *centroids) score(dots []float64, sig []tokenize.Token, idf []float64) {
	for j := range dots {
		dots[j] = 0
	}
	for _, t := range sig {
		wt := idf[t]
		for j, w := range c.weights(t) {
			dots[j] += wt * w
		}
	}
}

// openBest is the capacity pass's choice for a document whose preferred
// cluster is full: the first maximal dot among the open clusters, or —
// when none shares a token with the document — the least-loaded open
// cluster, lowest index on ties.
func openBest(dots []float64, counts []int, capPer int) int {
	best, bestDot := -1, 0.0
	for j, dot := range dots {
		if counts[j] >= capPer {
			continue
		}
		if best < 0 || dot > bestDot {
			best, bestDot = j, dot
		}
	}
	if best < 0 || bestDot <= 0 {
		best = leastLoaded(counts, capPer)
	}
	return best
}

// centroids holds the k cluster centroids as dense rows over the tokens
// of every signature: row[t] is token t's row number and w[r*k+j] its
// weight in cluster j's centroid. A token outside a centroid's support
// has weight 0 there, which adds to a dot product exactly what no term
// at all does. Row 0 is all zeros and belongs to every token in no
// signature, so a lookup never branches. The rows are fixed for the
// whole clustering; cols is the rebuild's column-major scratch.
type centroids struct {
	k, rows int
	row     []int32
	w       []float64
	cols    []float64
}

// newCentroids gives every token of any signature a row of zeros.
func newCentroids(k int, sigs [][]tokenize.Token, ntok int) *centroids {
	c := &centroids{k: k, rows: 1, row: make([]int32, ntok)}
	for _, sig := range sigs {
		for _, t := range sig {
			if c.row[t] == 0 {
				c.row[t] = int32(c.rows)
				c.rows++
			}
		}
	}
	c.w = make([]float64, c.rows*k)
	return c
}

// weights returns token t's weight in each of the k centroids.
func (c *centroids) weights(t tokenize.Token) []float64 {
	r := int(c.row[t]) * c.k
	return c.w[r : r+c.k]
}

// signature selects the up-to-sigLen highest-idf tokens of doc,
// preferring the lower token id on equal weights (doc is ascending, and
// replacement below is strict, so earlier tokens win ties).
func signature(doc []tokenize.Token, idf []float64) []tokenize.Token {
	if len(doc) <= sigLen {
		return doc
	}
	sig := make([]tokenize.Token, 0, sigLen)
	for _, t := range doc {
		if len(sig) < sigLen {
			sig = append(sig, t)
			continue
		}
		minAt := 0
		for i := 1; i < len(sig); i++ {
			// Strictly-less keeps the earliest minimum, so on equal
			// weights the lower token id survives.
			if idf[sig[i]] < idf[sig[minAt]] {
				minAt = i
			}
		}
		if idf[t] > idf[sig[minAt]] {
			sig[minAt] = t
		}
	}
	slices.Sort(sig)
	return sig
}

// leastLoaded returns the least-loaded cluster below the capacity cap,
// lowest index on ties.
func leastLoaded(counts []int, capPer int) int {
	best := -1
	for j, c := range counts {
		if c >= capPer {
			continue
		}
		if best < 0 || c < counts[best] {
			best = j
		}
	}
	if best < 0 {
		best = 0 // unreachable under the capacity slack; stay total anyway
	}
	return best
}

// rebuild recomputes every centroid as the mean of its members'
// signatures: each token's idf summed over the members, scaled by
// 1/|cluster| so large clusters do not out-shout small ones. The
// clusters are summed side by side, each into its own column and each
// in document order, so every weight is the serial sum bit for bit.
func (c *centroids) rebuild(sigs [][]tokenize.Token, assign []int32, counts []int, idf []float64, workers int) {
	if c.cols == nil {
		c.cols = make([]float64, len(c.w))
	}
	clear(c.cols)
	par.Chunks(workers, c.k, "partition", func(_, lo, hi int) {
		for i, sig := range sigs {
			j := int(assign[i])
			if j < lo || j >= hi {
				continue
			}
			col := c.cols[j*c.rows : (j+1)*c.rows]
			for _, t := range sig {
				col[c.row[t]] += idf[t]
			}
		}
		for j := lo; j < hi; j++ {
			if counts[j] == 0 {
				continue // an empty cluster's column is all zeros already
			}
			inv := 1 / float64(counts[j])
			col := c.cols[j*c.rows : (j+1)*c.rows]
			for r := range col {
				col[r] *= inv
			}
		}
	})
	for r := 0; r < c.rows; r++ {
		for j := 0; j < c.k; j++ {
			c.w[r*c.k+j] = c.cols[j*c.rows+r]
		}
	}
}
