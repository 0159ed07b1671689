package invlist

import (
	"container/list"
	"sync"
)

// cacheShardCount is the number of independently locked LRU shards in a
// blockCache. Concurrent FileStore queries touch disjoint blocks almost
// always, so spreading them over per-shard mutexes removes
// the single global lock the cache used to serialize on. Must be a power
// of two.
const cacheShardCount = 16

// blockCache is a thread-safe LRU cache of decoded posting blocks, shared
// by all cursors of one FileStore. The paper ran with OS page caching and
// disabled software buffers (§VIII-A); an explicit cache makes the
// hit/miss behaviour observable and keeps hot list prefixes decoded. It
// is sharded by key hash: each shard owns its own mutex, LRU list and
// capacity slice, so readers of different blocks do not contend.
type blockCache struct {
	capacity int // total across shards; ≤ 0 disables caching
	shards   [cacheShardCount]cacheShard
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List            // front = most recent; values are *cacheEntry
	items    map[int]*list.Element // keyed by block index in the arena
	hits     uint64
	misses   uint64
}

// shardFor hashes a block index to its shard.
func (c *blockCache) shardFor(key int) *cacheShard {
	h := uint64(uint(key)) * 0xBF58476D1CE4E5B9
	return &c.shards[(h>>32)&(cacheShardCount-1)]
}

type cacheEntry struct {
	key   int
	block []Posting
}

// newBlockCache returns a cache holding up to capacity blocks in total;
// capacity ≤ 0 disables caching (every lookup misses). Per-shard
// capacity is rounded up, so small caches still admit at least one block
// per shard.
func newBlockCache(capacity int) *blockCache {
	c := &blockCache{capacity: capacity}
	if capacity <= 0 {
		return c
	}
	per := (capacity + cacheShardCount - 1) / cacheShardCount
	for i := range c.shards {
		c.shards[i].capacity = per
		c.shards[i].lru = list.New()
		c.shards[i].items = make(map[int]*list.Element)
	}
	return c
}

// get returns the cached block for key, if present.
func (c *blockCache) get(key int) ([]Posting, bool) {
	if c == nil || c.capacity <= 0 {
		return nil, false
	}
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.lru.MoveToFront(el)
		s.hits++
		return el.Value.(*cacheEntry).block, true
	}
	s.misses++
	return nil, false
}

// put inserts a decoded block, evicting the shard's least recently used
// entry when full. The block must not be mutated after insertion.
func (c *blockCache) put(key int, block []Posting) {
	if c == nil || c.capacity <= 0 {
		return
	}
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.lru.MoveToFront(el)
		el.Value.(*cacheEntry).block = block
		return
	}
	el := s.lru.PushFront(&cacheEntry{key: key, block: block})
	s.items[key] = el
	for s.lru.Len() > s.capacity {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.items, back.Value.(*cacheEntry).key)
	}
}

// CacheStats reports block-cache effectiveness.
type CacheStats struct {
	Hits, Misses uint64
	Blocks       int
}

func (c *blockCache) stats() CacheStats {
	if c == nil || c.capacity <= 0 {
		return CacheStats{}
	}
	var z CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		z.Hits += s.hits
		z.Misses += s.misses
		z.Blocks += s.lru.Len()
		s.mu.Unlock()
	}
	return z
}
