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
	"sort"

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
// reproduce the static build's routing bit for bit.
func Partition(docs [][]tokenize.Token, idf []float64, k int) []int32 {
	n := len(docs)
	assign := make([]int32, n)
	if k <= 1 || n == 0 {
		return assign
	}

	sigs := make([][]tokenize.Token, n)
	for i, doc := range docs {
		sigs[i] = signature(doc, idf)
	}

	// Capacity ~25% above the even share: k·capPer ≥ n always holds, so
	// the assignment loop can never find every cluster full.
	capPer := n/k + n/(4*k) + 1

	// Deterministic seeding: k evenly spaced documents donate their
	// signatures as the initial centroids.
	cents := centroids{k: k, row: make([]int32, len(idf)), tok: make([]tokenize.Token, 1), w: make([]float64, k)}
	for j := 0; j < k; j++ {
		for _, t := range sigs[j*n/k] {
			cents.at(t)[j] = idf[t]
		}
	}

	counts := make([]int, k)
	dots := make([]float64, k)
	for it := 0; it < iterations; it++ {
		for j := range counts {
			counts[j] = 0
		}
		moved := 0
		for i, sig := range sigs {
			// Every cluster's dot accumulates over the signature in the same
			// order, zero terms included (a token outside every support reads
			// the all-zero row), so each sum is the one a per-cluster loop over
			// sparse centroids would produce, bit for bit.
			for j := range dots {
				dots[j] = 0
			}
			for _, t := range sig {
				wt := idf[t]
				for j, c := range cents.weights(t) {
					dots[j] += wt * c
				}
			}
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
				// No open cluster shares a token with this document (or
				// all are full, which the capacity slack rules out):
				// balance it onto the least-loaded open cluster, lowest
				// index on ties.
				best = leastLoaded(counts, capPer)
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
		cents.rebuild(sigs, assign, counts, idf)
	}
	return assign
}

// centroids holds the k cluster centroids as dense rows over the tokens
// in any centroid's support: row[t] is token t's row number, tok[r] the
// token of row r, and w[r*k+j] its weight in cluster j's centroid. Row 0
// is all zeros and belongs to every token in no support, so a lookup
// never branches.
type centroids struct {
	k   int
	row []int32
	tok []tokenize.Token
	w   []float64
}

// weights returns token t's weight in each of the k centroids.
func (c *centroids) weights(t tokenize.Token) []float64 {
	r := int(c.row[t]) * c.k
	return c.w[r : r+c.k]
}

// at is weights for writing: it gives t a row of its own first.
func (c *centroids) at(t tokenize.Token) []float64 {
	if c.row[t] == 0 {
		c.row[t] = int32(len(c.tok))
		c.tok = append(c.tok, t)
		c.w = append(c.w, make([]float64, c.k)...)
	}
	return c.weights(t)
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
	sort.Slice(sig, func(i, j int) bool { return sig[i] < sig[j] })
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
// 1/|cluster| so large clusters do not out-shout small ones.
func (c *centroids) rebuild(sigs [][]tokenize.Token, assign []int32, counts []int, idf []float64) {
	for _, t := range c.tok[1:] {
		c.row[t] = 0
	}
	c.tok, c.w = c.tok[:1], c.w[:c.k]
	for i, sig := range sigs {
		j := assign[i]
		for _, t := range sig {
			c.at(t)[j] += idf[t]
		}
	}
	for j, n := range counts {
		if n == 0 {
			continue // an empty cluster's column is all zeros already
		}
		inv := 1 / float64(n)
		for r := c.k + j; r < len(c.w); r += c.k {
			c.w[r] *= inv
		}
	}
}
