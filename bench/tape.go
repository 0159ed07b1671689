package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
)

// opClass is the kind of operation a tape slot performs. Latencies are
// only ever pooled within one class: a percentile over two classes with
// different costs sits on the boundary between them and is unstable.
type opClass uint8

const (
	opSelect opClass = iota // SF threshold selection, τ = tau
	opHybrid                // Hybrid threshold selection, τ = tau
	opINRA                  // iNRA threshold selection, τ = tau
	opTopK                  // SF top-k, k = topK
	opBatch                 // SelectBatch of batchSize queries, SF, τ = tau
	opInsert                // Insert churn string arg (durable workloads)
	opDelete                // Delete the id churn string arg got in the previous lap
	numClasses
)

var classNames = [numClasses]string{"select", "hybrid", "inra", "topk", "batch", "insert", "delete"}

func (c opClass) String() string { return classNames[c] }

const (
	tau       = 0.8
	topK      = 10
	batchSize = 64
	// batchWorkers is SelectBatch's worker count: with the single client
	// goroutine blocked in the call, the process never runs more than two
	// threads of its own work.
	batchWorkers = 2
)

// mix is the number of slots of each class in one lap of a tape.
type mix [numClasses]int

func (m mix) scaled(f float64) mix {
	for c, n := range m {
		if n > 0 {
			m[c] = scaleInt(n, f, 4)
		}
	}
	return m
}

func scaleInt(n int, f float64, floor int) int {
	v := int(float64(n)*f + 0.5)
	if v < floor {
		v = floor
	}
	return v
}

// slot is one operation of the tape. arg indexes tape.queries for the
// single-query classes, tape.batches for opBatch and tape.churn for the
// write classes.
type slot struct {
	class opClass
	arg   int32
}

// tape is a workload's fixed operation sequence. One replay of it is a
// lap; every lap executes the same slots in the same order.
type tape struct {
	slots []slot
	// split, when not 0, divides the tape into two sections, the writes
	// slots[:split] and the reads slots[split:]; all laps of the first are
	// replayed before the first lap of the second.
	split   int
	queries []string
	batches [][]int32
	churn   []string
}

// querySource draws a workload's query strings. mixed is the whole
// query population; exact is its homogeneous core, used where the mixed
// population's cost is bimodal (see the words workloads).
type querySource struct {
	mixed, exact func() string
}

// makeTape lays out m's slots in a seeded random interleaving; with
// writesFirst the writes and the reads are interleaved among themselves
// and form two sections. Every single-query slot and every batch position gets its own
// draw from the query source. Hybrid and iNRA draw from src.exact, every
// other class from src.mixed.
func makeTape(rng *rand.Rand, m mix, src querySource, churn []string, writesFirst bool) *tape {
	t := &tape{churn: churn}
	newQuery := func(draw func() string) int32 {
		t.queries = append(t.queries, draw())
		return int32(len(t.queries) - 1)
	}
	for c := opClass(0); c < numClasses; c++ {
		for i := 0; i < m[c]; i++ {
			s := slot{class: c, arg: int32(i)}
			switch c {
			case opSelect, opTopK:
				s.arg = newQuery(src.mixed)
			case opHybrid, opINRA:
				s.arg = newQuery(src.exact)
			case opBatch:
				b := make([]int32, batchSize)
				for j := range b {
					b[j] = newQuery(src.mixed)
				}
				t.batches = append(t.batches, b)
			case opInsert, opDelete:
				// arg i names churn[i].
			}
			t.slots = append(t.slots, s)
		}
	}
	rng.Shuffle(len(t.slots), func(i, j int) { t.slots[i], t.slots[j] = t.slots[j], t.slots[i] })
	if writesFirst {
		sort.SliceStable(t.slots, func(i, j int) bool { return t.slots[i].class >= opInsert && t.slots[j].class < opInsert })
		t.split = m[opInsert] + m[opDelete]
	}
	return t
}

// sections returns the tape's sections as slot ranges [from, to).
func (t *tape) sections() [][2]int {
	if t.split == 0 {
		return [][2]int{{0, len(t.slots)}}
	}
	return [][2]int{{0, t.split}, {t.split, len(t.slots)}}
}

// hash identifies the tape's content: two runs are comparable only when
// their tapes (and corpora, which the caller folds in) hash alike.
func (t *tape) hash(corpus []string) uint64 {
	h := fnv.New64a()
	put := func(s string) {
		h.Write([]byte(s)) //nolint:errcheck // hash.Hash never fails
		h.Write([]byte{0}) //nolint:errcheck
	}
	for _, s := range corpus {
		put(s)
	}
	for _, s := range t.slots {
		h.Write([]byte{byte(s.class), byte(s.arg), byte(s.arg >> 8), byte(s.arg >> 16), byte(s.arg >> 24)}) //nolint:errcheck
	}
	for _, q := range t.queries {
		put(q)
	}
	for _, b := range t.batches {
		for _, q := range b {
			h.Write([]byte{byte(q), byte(q >> 8), byte(q >> 16), byte(q >> 24)}) //nolint:errcheck
		}
	}
	for _, s := range t.churn {
		put(s)
	}
	h.Write([]byte{byte(t.split), byte(t.split >> 8), byte(t.split >> 16), byte(t.split >> 24)}) //nolint:errcheck
	return h.Sum64()
}

// laptimes holds one latency per slot per lap, in nanoseconds.
type laptimes struct {
	laps int
	ns   []int32 // slot-major: ns[slot*laps+lap]
}

func newLaptimes(slots, laps int) *laptimes {
	return &laptimes{laps: laps, ns: make([]int32, slots*laps)}
}

func (l *laptimes) set(slot, lap int, d int64) {
	if d > 1<<31-1 {
		d = 1<<31 - 1
	}
	l.ns[slot*l.laps+lap] = int32(d)
}

func (l *laptimes) slot(i int) []int32 { return l.ns[i*l.laps : (i+1)*l.laps] }

// clean is a slot's clean latency: the fastest of its measured laps. A
// slot runs the same operation against the same state in every lap, so
// the laps differ only by what the machine added — GC, compaction
// running beside it, a neighbour evicting the cache — and the minimum is
// the lap that got the least of it.
func clean(laps []int32) int32 {
	m := laps[0]
	for _, v := range laps[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// cleanByClass returns, per class, the sorted clean latencies (ns) of the
// class's slots over laps [warm, laps).
func cleanByClass(t *tape, l *laptimes, warm int) [numClasses][]float64 {
	var out [numClasses][]float64
	for i, s := range t.slots {
		out[s.class] = append(out[s.class], float64(clean(l.slot(i)[warm:])))
	}
	for c := range out {
		sort.Float64s(out[c])
	}
	return out
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice: the smallest element with at least p % of the
// elements at or below it. An empty slice has percentile 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}
