package xqtp

import "xqtp/internal/lru"

// DefaultPlanCacheSize is the capacity of a plan cache built with a
// non-positive size.
const DefaultPlanCacheSize = 256

// CacheStats is a snapshot of one cache's occupancy and activity: a plan
// cache, a query's prepared-join cache, or the sum of the latter over a plan
// cache's queries.
type CacheStats = lru.Stats

// PlanCache is a bounded LRU cache of compiled queries keyed by (query
// text, compile options). A serving process prepares each distinct query
// once and reuses the compiled plan — and, through the Query's own physical
// plan memoization and prepared-pattern cache, the slot-resolved physical
// lowering and the resolved joins — on every subsequent request.
//
// All methods are safe for concurrent use. Cached *Query values are shared
// between callers; they are immutable after compilation and safe to Run
// from many goroutines.
type PlanCache struct {
	c *lru.Cache[planKey, *Query]
}

type planKey struct {
	query string
	opts  CompileOptions
}

// NewPlanCache builds a cache holding at most size compiled queries
// (size <= 0 falls back to DefaultPlanCacheSize).
func NewPlanCache(size int) *PlanCache {
	if size <= 0 {
		size = DefaultPlanCacheSize
	}
	return &PlanCache{c: lru.New[planKey, *Query](size, 0, nil)}
}

// Prepare returns the cached compilation of query under DefaultOptions,
// compiling and caching it on a miss.
func (c *PlanCache) Prepare(query string) (*Query, error) {
	return c.PrepareWithOptions(query, DefaultOptions)
}

// PrepareWithOptions returns the cached compilation of query under opts,
// compiling and caching it on a miss. The compile itself runs outside the
// cache lock, so a slow compilation never blocks cache hits; concurrent
// misses on the same key may compile twice, and the first stored entry
// wins, so every caller shares one Query (and one prepared-pattern cache).
func (c *PlanCache) PrepareWithOptions(query string, opts CompileOptions) (*Query, error) {
	if opts.ContextVar == "" {
		// Normalize so "" and the explicit default share one entry.
		opts.ContextVar = "dot"
	}
	key := planKey{query: query, opts: opts}
	if q, ok := c.c.Get(key); ok {
		return q, nil
	}
	q, err := PrepareWithOptions(query, opts)
	if err != nil {
		return nil, err
	}
	return c.c.Add(key, q), nil
}

// Stats returns a snapshot of the cache counters.
func (c *PlanCache) Stats() CacheStats { return c.c.Stats() }

// PrepStats aggregates the prepared-join cache counters over every query
// currently held by the plan cache: the sum of each cached query's
// PrepStats. Size and Capacity sum too, so the ratio Size/Capacity keeps its
// "how full" meaning across the fleet of per-query caches.
func (c *PlanCache) PrepStats() CacheStats {
	var total CacheStats
	for _, q := range c.c.Values() {
		s := q.PrepStats()
		total.Size += s.Size
		total.Capacity += s.Capacity
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Evictions += s.Evictions
	}
	return total
}

// Reset empties the cache and zeroes its counters.
func (c *PlanCache) Reset() { c.c.Reset() }

// PrepStats returns the query's prepared-join cache counters.
func (q *Query) PrepStats() CacheStats { return q.preps.Stats() }
