package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/collection"
	"repro/internal/sim"
)

// Top-k processing is the first extension the paper's conclusion plans
// (§X). Shortest-First answers it by turning the selection threshold τ
// into a rising bound: the k-th largest score lower bound seen so far.
// Lower bounds only grow, so every pruning rule of the selection
// algorithms stays sound with the dynamic τ substituted in.

// SelectTopK returns the k highest-scoring sets for q, using alg ∈
// {Naive, SF}; any other algorithm returns ErrUnknownAlg. Ties at the
// k-th position are broken by ascending id. Results are sorted by
// descending score. It is SelectTopKCtx with a background context.
func (e *Engine) SelectTopK(q Query, k int, alg Algorithm, opts *Options) ([]Result, Stats, error) {
	return e.SelectTopKCtx(context.Background(), q, k, alg, opts)
}

// SelectTopKCtx is SelectTopK under a context: cancellation or deadline
// expiry stops the scan mid-list and returns ctx.Err() with the Stats
// accumulated so far (same granularity guarantee as SelectCtx).
func (e *Engine) SelectTopKCtx(ctx context.Context, q Query, k int, alg Algorithm, opts *Options) ([]Result, Stats, error) {
	p, err := topkPlan(q, k, alg, opts)
	if err != nil {
		return planDone(err)
	}
	return e.runPlan(ctx, q, p, nil)
}

// sharedTau circulates the global k-th-score lower bound across the
// shards of a scatter-gather top-k query: whenever any shard's local
// k-th bound rises, every other shard's next liveTau read picks it up
// and prunes with the tighter Theorem 1 window. The bound is a lower
// bound on the global k-th true score, so the pruning stays sound in
// every shard (a candidate pruned against it cannot belong to the
// global top k). Stored as float64 bits in an atomic; raises are
// CAS-max, so the bound only grows.
type sharedTau struct {
	bits   atomic.Uint64
	raises atomic.Uint64 // successful raises, reported by the shard: metrics line
}

// load returns the current shared bound (0 when unsharded: nil receiver).
func (st *sharedTau) load() float64 {
	if st == nil {
		return 0
	}
	return math.Float64frombits(st.bits.Load())
}

// raise lifts the shared bound to at least tau.
func (st *sharedTau) raise(tau float64) {
	if st == nil || tau <= minPositiveTau {
		return
	}
	for {
		old := st.bits.Load()
		if math.Float64frombits(old) >= tau {
			return
		}
		if st.bits.CompareAndSwap(old, math.Float64bits(tau)) {
			st.raises.Add(1)
			return
		}
	}
}

// liveTau is the dynamic pruning threshold with the cross-shard bound
// folded in. With shared == nil it is exactly the local k-th bound.
func liveTau(b *kthBound, shared *sharedTau) float64 {
	t := b.tau()
	if s := shared.load(); s > t {
		t = s
	}
	return t
}

// sortTopK orders by descending score, ties by ascending id. The
// comparator captures nothing, so it costs no allocation on the warm
// path (TestWarmTopKAllocations pins the budget).
func sortTopK(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// topkNaive is the oracle: full scan, exact top-k over the documents lv
// leaves alive.
func (e *Engine) topkNaive(s *queryScratch, cc *canceller, q Query, k int, lv *liveView) ([]Result, error) {
	all, err := e.selectNaive(s, cc, q, minPositiveTau, nil)
	if err != nil {
		return nil, err
	}
	if lv.ids != nil {
		kept := all[:0]
		for _, r := range all {
			if !lv.dead(r.ID) {
				kept = append(kept, r)
			}
		}
		all = kept
	}
	sortTopK(all)
	if len(all) > k {
		all = all[:k]
	}
	return all, nil
}

// minPositiveTau admits any set sharing at least one token with the
// query (every real score exceeds it).
const minPositiveTau = 1e-30

// effTau converts a dynamic threshold into the slack-adjusted value used
// for geometric bounds, floored so the bounds stay positive while the
// result heap is still filling.
func effTau(tau float64) float64 {
	t := tau - sim.ScoreEpsilon
	if t < minPositiveTau {
		t = minPositiveTau
	}
	return t
}

// kthBound tracks the k-th largest score lower bound across *distinct*
// candidates — the dynamic τ. A candidate whose lower bound grows updates
// its existing entry (increase-key) rather than occupying several heap
// slots, which would inflate τ and prune true answers. It is an indexed
// min-heap of at most k entries. The heap arrays and position map live in
// the query scratch and are reset, not reallocated, per query.
type kthBound struct {
	k      int
	ids    []collection.SetID
	scores []float64
	pos    map[collection.SetID]int
}

// reset readies the bound for a new query with capacity k.
func (b *kthBound) reset(k int) {
	b.k = k
	b.ids = b.ids[:0]
	b.scores = b.scores[:0]
	if b.pos == nil {
		b.pos = make(map[collection.SetID]int, k)
	} else {
		clear(b.pos)
	}
}

func (b *kthBound) swap(i, j int) {
	b.ids[i], b.ids[j] = b.ids[j], b.ids[i]
	b.scores[i], b.scores[j] = b.scores[j], b.scores[i]
	b.pos[b.ids[i]] = i
	b.pos[b.ids[j]] = j
}

func (b *kthBound) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if b.scores[parent] <= b.scores[i] {
			return
		}
		b.swap(i, parent)
		i = parent
	}
}

func (b *kthBound) siftDown(i int) {
	n := len(b.scores)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && b.scores[l] < b.scores[min] {
			min = l
		}
		if r < n && b.scores[r] < b.scores[min] {
			min = r
		}
		if min == i {
			return
		}
		b.swap(i, min)
		i = min
	}
}

// offer records candidate id's current lower bound.
func (b *kthBound) offer(id collection.SetID, score float64) {
	if i, ok := b.pos[id]; ok {
		if score > b.scores[i] {
			b.scores[i] = score
			b.siftDown(i)
		}
		return
	}
	b.offerNew(id, score)
}

// offerNew is offer for an id never offered since reset, which cannot be
// in the heap, so the position-map lookup is skipped.
func (b *kthBound) offerNew(id collection.SetID, score float64) {
	if len(b.scores) < b.k {
		b.ids = append(b.ids, id)
		b.scores = append(b.scores, score)
		b.pos[id] = len(b.scores) - 1
		b.siftUp(len(b.scores) - 1)
		return
	}
	if score > b.scores[0] {
		delete(b.pos, b.ids[0])
		b.ids[0], b.scores[0] = id, score
		b.pos[id] = 0
		b.siftDown(0)
	}
}

// tau is the current pruning threshold: the k-th best lower bound across
// distinct candidates, or a tiny positive floor while fewer than k exist.
func (b *kthBound) tau() float64 {
	if len(b.scores) < b.k {
		return minPositiveTau
	}
	return b.scores[0]
}

// offerShared records a candidate lower bound and publishes the local
// k-th bound to the other shards when it may have risen.
func offerShared(b *kthBound, shared *sharedTau, id collection.SetID, score float64) {
	b.offer(id, score)
	if shared != nil {
		shared.raise(b.tau())
	}
}

// topkSF runs Shortest-First with the rising bound: per-list cutoffs λᵢ
// and viability tests are re-evaluated against the current τ, which
// tightens as candidate lower bounds accumulate. The candidate machinery
// is selectSF's one merge pass per list, each viability test reading the
// τ current when its candidate is passed. A posting lv reports tombstoned
// is refused each time it would become a candidate, so it never reaches
// the bound, C or the results.
func (e *Engine) topkSF(s *queryScratch, cc *canceller, q Query, k int, lv *liveView, o *Options, stats *Stats, shared *sharedTau) ([]Result, error) {
	lists := e.openLists(s, cc, q, 0, o, stats) // no static Theorem 1 window: τ starts at ~0
	n := len(lists)
	suffix := resliceFloats(s.f0, n+1)
	s.f0 = suffix
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + q.Tokens[i].IDFSq
	}

	bound := &s.kth
	bound.reset(k)
	c, next := s.sfc[:0], s.sfn[:0]

	for i := range lists {
		l := &lists[i]
		m, lastOld := 0, 0.0
		for p, ok := l.frontier(); ok; p, ok = l.frontier() {
			if cc.stop() {
				s.sfc, s.sfn = c, next
				return nil, cc.err
			}
			tau := liveTau(bound, shared)
			hi := q.Len / effTau(tau)
			for m < len(c) && sfBefore(&c[m], p) {
				if sim.Meets(c[m].lower+suffix[i+1]/(q.Len*c[m].len), tau) {
					next = append(next, c[m])
					lastOld = c[m].len
				}
				m++
			}
			mu := suffix[i] / (effTau(tau) * q.Len)
			if hi < mu {
				mu = hi
			}
			stop, maxLen := mu, lastOld
			if m < len(c) {
				maxLen = c[len(c)-1].len
			}
			if maxLen > stop {
				stop = maxLen
			}
			if p.Len > stop {
				break
			}
			if p.Len > mu && !o.NoSkipIndex && !sim.Meets(suffix[i]/(q.Len*p.Len), tau) {
				var ok bool
				if next, ok = completeSF(cc, l, e.dense.of(q.Tokens[i].Token), c[m:], next, q.Len, suffix[i], suffix[i+1], tau, bound, shared, stats); !ok {
					s.sfc, s.sfn = c, next
					return nil, cc.err
				}
				m = len(c)
				break
			}
			stats.ElementsRead++
			l.next()
			if m < len(c) && c[m].id == p.ID {
				c[m].lower += l.w(q.Len, p.Len)
				offerShared(bound, shared, p.ID, c[m].lower)
				continue
			}
			if sim.Meets(suffix[i]/(q.Len*p.Len), tau) && !lv.dead(p.ID) {
				w := l.w(q.Len, p.Len)
				next = append(next, sfCand{id: p.ID, len: p.Len, lower: w})
				bound.offerNew(p.ID, w)
				if shared != nil {
					shared.raise(bound.tau())
				}
				stats.CandidatesInserted++
			}
		}

		stats.CandidateScans++
		var ok bool
		if next, ok = keepViable(cc, c[m:], next, q.Len, suffix[i+1], liveTau(bound, shared)); !ok {
			s.sfc, s.sfn = c, next
			return nil, cc.err
		}
		c, next = next, c[:0]
	}

	tau := liveTau(bound, shared)
	out := s.results[:0]
	for _, cand := range c {
		if sim.Meets(cand.lower, tau) {
			out = append(out, Result{ID: cand.id, Score: cand.lower})
		}
	}
	s.sfc, s.sfn = c, next
	s.results = out
	return out, listsErr(lists)
}
