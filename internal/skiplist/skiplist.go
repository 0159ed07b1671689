// Package skiplist provides a probabilistic skip list — an ordered map
// with O(log n) expected search, insert and delete. The paper attaches a
// skip list to every weight-sorted inverted list so that algorithms using
// Length Boundedness can jump to the first entry with a given length
// (§VIII, Fig. 9).
//
// Nothing in the library imports this package any more: the inverted
// lists are immutable, so internal/invlist indexes them with a static
// array of sampled lengths. The package remains only because the
// benchmark's skiplist.seek_ns probe (bench/probes.go) compiles against
// New, Set and Seek; retire the probe and the package together.
package skiplist

import "math/rand"

const (
	maxLevel = 24
	// p is the level promotion probability; 1/4 gives shorter towers than
	// the classic 1/2 with the same expected search cost, matching common
	// practice (Redis, LevelDB memtable).
	p = 0.25
)

// List is a skip list from K to V ordered by a user-supplied comparison.
// It is not safe for concurrent mutation.
type List[K, V any] struct {
	less   func(a, b K) bool
	head   *node[K, V]
	level  int
	length int
	rng    *rand.Rand
}

type node[K, V any] struct {
	key  K
	val  V
	next []*node[K, V]
}

// New returns an empty list ordered by less. The seed makes tower heights
// deterministic, which keeps index sizes and test behaviour reproducible.
func New[K, V any](less func(a, b K) bool, seed int64) *List[K, V] {
	return &List[K, V]{
		less:  less,
		head:  &node[K, V]{next: make([]*node[K, V], maxLevel)},
		level: 1,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Len reports the number of entries.
func (l *List[K, V]) Len() int { return l.length }

func (l *List[K, V]) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && l.rng.Float64() < p {
		lvl++
	}
	return lvl
}

// findPredecessors fills update with, per level, the last node whose key
// is < key, and returns the node after update[0] (the first node ≥ key).
func (l *List[K, V]) findPredecessors(key K, update *[maxLevel]*node[K, V]) *node[K, V] {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && l.less(x.next[i].key, key) {
			x = x.next[i]
		}
		update[i] = x
	}
	return x.next[0]
}

// Set inserts key→val, replacing the value if an equal key exists.
// It reports whether a new entry was created.
func (l *List[K, V]) Set(key K, val V) bool {
	var update [maxLevel]*node[K, V]
	x := l.findPredecessors(key, &update)
	if x != nil && !l.less(key, x.key) { // equal key
		x.val = val
		return false
	}
	lvl := l.randomLevel()
	if lvl > l.level {
		for i := l.level; i < lvl; i++ {
			update[i] = l.head
		}
		l.level = lvl
	}
	n := &node[K, V]{key: key, val: val, next: make([]*node[K, V], lvl)}
	for i := 0; i < lvl; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
	l.length++
	return true
}

// Get returns the value stored under key.
func (l *List[K, V]) Get(key K) (V, bool) {
	var update [maxLevel]*node[K, V]
	x := l.findPredecessors(key, &update)
	if x != nil && !l.less(key, x.key) {
		return x.val, true
	}
	var zero V
	return zero, false
}

// Delete removes key, reporting whether it was present.
func (l *List[K, V]) Delete(key K) bool {
	var update [maxLevel]*node[K, V]
	x := l.findPredecessors(key, &update)
	if x == nil || l.less(key, x.key) {
		return false
	}
	for i := 0; i < len(x.next); i++ {
		if update[i].next[i] == x {
			update[i].next[i] = x.next[i]
		}
	}
	for l.level > 1 && l.head.next[l.level-1] == nil {
		l.level--
	}
	l.length--
	return true
}

// Seek returns an iterator positioned at the first entry with key ≥ key.
func (l *List[K, V]) Seek(key K) *Iterator[K, V] {
	var update [maxLevel]*node[K, V]
	x := l.findPredecessors(key, &update)
	return &Iterator[K, V]{n: x}
}

// SeekLE returns the entry with the greatest key ≤ key, or ok == false if
// every key is greater (or the list is empty). This is the descent the
// paper's skip lists perform to find the block containing a target length.
func (l *List[K, V]) SeekLE(key K) (K, V, bool) {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && !l.less(key, x.next[i].key) {
			x = x.next[i]
		}
	}
	if x == l.head {
		var zk K
		var zv V
		return zk, zv, false
	}
	return x.key, x.val, true
}

// SeekLT returns the entry with the greatest key strictly less than key,
// or ok == false if no such entry exists.
func (l *List[K, V]) SeekLT(key K) (K, V, bool) {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && l.less(x.next[i].key, key) {
			x = x.next[i]
		}
	}
	if x == l.head {
		var zk K
		var zv V
		return zk, zv, false
	}
	return x.key, x.val, true
}

// First returns an iterator at the smallest entry.
func (l *List[K, V]) First() *Iterator[K, V] {
	return &Iterator[K, V]{n: l.head.next[0]}
}

// Iterator walks list entries in ascending key order.
type Iterator[K, V any] struct {
	n *node[K, V]
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator[K, V]) Valid() bool { return it.n != nil }

// Key returns the current key; the iterator must be Valid.
func (it *Iterator[K, V]) Key() K { return it.n.key }

// Value returns the current value; the iterator must be Valid.
func (it *Iterator[K, V]) Value() V { return it.n.val }

// Next advances to the following entry.
func (it *Iterator[K, V]) Next() { it.n = it.n.next[0] }
