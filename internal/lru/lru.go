// Package lru is the one bounded least-recently-used map behind the engine's
// memo layer: the plan cache (query text → compiled query), the per-query
// prepared-join cache ((pattern, tree, algorithm) → prepared join) and the
// server's rendered-result cache all wrap a Cache.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a concurrency-safe LRU map bounded by entry count and,
// optionally, by the total weight of its values. Callers compute a missing
// value outside the cache (Get misses, the caller builds, Add stores), so a
// slow build never blocks hits; when two callers miss on one key and both
// store, the first stored value wins and both get it back from Add.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	maxN      int
	maxWeight int64 // 0: no weight bound
	weigh     func(V) int64
	ll        list.List // front = most recently used; values are *entry[K, V]
	m         map[K]*list.Element
	weight    int64

	hits, misses, evictions uint64
}

type entry[K comparable, V any] struct {
	key    K
	val    V
	weight int64
}

// Stats is a snapshot of a cache's occupancy and activity.
type Stats struct {
	Size      int    // entries currently cached
	Capacity  int    // maximum entries
	Bytes     int64  // total weight of the cached values
	MaxBytes  int64  // weight bound (0: none)
	Hits      uint64 // lookups served from the cache
	Misses    uint64 // lookups that found nothing
	Evictions uint64 // entries dropped by a bound or a sweep
}

// New returns a cache holding at most maxEntries values (at least one).
// With a non-nil weigh and maxWeight > 0 it also keeps the summed weight of
// its values at or under maxWeight.
func New[K comparable, V any](maxEntries int, maxWeight int64, weigh func(V) int64) *Cache[K, V] {
	if weigh == nil {
		maxWeight = 0
	}
	maxEntries = max(maxEntries, 1)
	return &Cache[K, V]{
		maxN:      maxEntries,
		maxWeight: maxWeight,
		weigh:     weigh,
		m:         make(map[K]*list.Element, min(maxEntries, 64)),
	}
}

// Get returns the value stored under k, marking it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add stores v under k unless k is already present, and returns the value
// the cache now holds for k: the earlier one when another caller stored
// first. It then evicts least-recently-used entries until both bounds hold.
// A value heavier than the whole weight bound is not stored, and Add
// returns it unchanged.
func (c *Cache[K, V]) Add(k K, v V) V {
	var w int64
	if c.weigh != nil {
		w = c.weigh(v)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val
	}
	if c.maxWeight > 0 && w > c.maxWeight {
		return v
	}
	c.m[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v, weight: w})
	c.weight += w
	for c.ll.Len() > c.maxN || (c.maxWeight > 0 && c.weight > c.maxWeight) {
		c.remove(c.ll.Back())
	}
	return v
}

// Sweep drops every entry for which drop returns true, returning its weight
// to the budget, and reports how many it dropped. Swept entries count as
// evictions. drop runs under the cache lock and must not call the cache.
func (c *Cache[K, V]) Sweep(drop func(K, V) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*entry[K, V]); drop(e.key, e.val) {
			c.remove(el)
			n++
		}
		el = next
	}
	return n
}

// remove unlinks one entry and counts it as an eviction; c.mu is held.
func (c *Cache[K, V]) remove(el *list.Element) {
	e := c.ll.Remove(el).(*entry[K, V])
	delete(c.m, e.key)
	c.weight -= e.weight
	c.evictions++
}

// Values returns the cached values, most recently used first.
func (c *Cache[K, V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry[K, V]).val)
	}
	return out
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Size:      c.ll.Len(),
		Capacity:  c.maxN,
		Bytes:     c.weight,
		MaxBytes:  c.maxWeight,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// Reset empties the cache and zeroes its counters.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.m)
	c.weight = 0
	c.hits, c.misses, c.evictions = 0, 0, 0
}
