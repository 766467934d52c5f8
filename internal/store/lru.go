package store

import (
	"container/list"
	"sync"
)

// LRU is a bounded in-memory cache with single-flight computation: when
// several goroutines ask for the same missing key at once, exactly one runs
// the compute function and the rest block until its value is ready. It is
// the one cache primitive shared across the repository — internal/parallel
// memoizes exact miscorrection profiles and materialized pattern families on
// it, and Store.SolveCache fronts the durable Backend with it so hot profile
// hashes skip disk reads and record re-parsing.
//
// Values are shared, not copied: callers must treat them as read-only.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used; values are *lruEntry[K, V]
	items map[K]*list.Element
	hits  int64
	reqs  int64
}

// lruEntry is one cache slot. ready is closed once val is computed, so
// concurrent requests for the same key compute exactly once and share the
// result.
type lruEntry[K comparable, V any] struct {
	key   K
	ready chan struct{}
	val   V
}

// NewLRU returns a cache bounded to max entries (max must be positive).
func NewLRU[K comparable, V any](max int) *LRU[K, V] {
	if max < 1 {
		panic("store: LRU capacity must be positive")
	}
	return &LRU[K, V]{max: max, ll: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the cached value for key, invoking compute on a miss. Exactly
// one caller computes per in-flight key; the rest block on the entry
// becoming ready. The computed value is cached even if it is the zero value
// — pair Get with Add to overwrite a cached negative result.
func (c *LRU[K, V]) Get(key K, compute func() V) V {
	c.mu.Lock()
	c.reqs++
	if el, ok := c.items[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		entry := el.Value.(*lruEntry[K, V])
		c.mu.Unlock()
		<-entry.ready
		return entry.val
	}
	entry := &lruEntry[K, V]{key: key, ready: make(chan struct{})}
	c.items[key] = c.ll.PushFront(entry)
	c.evictLocked()
	c.mu.Unlock()
	// Compute outside the lock; an entry evicted while in flight still
	// resolves for its waiters.
	entry.val = compute()
	close(entry.ready)
	return entry.val
}

// add inserts (or overwrites) a ready value for key, marking it most
// recently used. Waiters on a previous in-flight entry for the same key
// still receive that entry's computed value; subsequent Gets see v.
func (c *LRU[K, V]) add(key K, v V) {
	entry := &lruEntry[K, V]{key: key, ready: make(chan struct{}), val: v}
	close(entry.ready)
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.Remove(el)
	}
	c.items[key] = c.ll.PushFront(entry)
	c.evictLocked()
	c.mu.Unlock()
}

// remove drops the entry for key, if any. Waiters on an in-flight entry
// still receive its computed value; the next Get recomputes. Used to avoid
// caching negative results: compute-returned misses are removed so a value
// that appears later (e.g. in a shared durable backend) is seen.
func (c *LRU[K, V]) remove(key K) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.Remove(el)
		delete(c.items, key)
	}
	c.mu.Unlock()
}

// evictLocked trims the cache to capacity; callers hold c.mu.
func (c *LRU[K, V]) evictLocked() {
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[K, V]).key)
	}
}

// Stats returns (hits, requests) counted by Get since construction.
func (c *LRU[K, V]) Stats() (hits, requests int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.reqs
}
