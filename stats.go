package xqtp

import "xqtp/internal/physical"

// PrepCacheStats is a snapshot of a prepared-join cache: the per-(pattern,
// document, algorithm) join preparations a compiled query memoizes across
// runs.
type PrepCacheStats = physical.PrepCacheStats

// PrepStats returns the query's prepared-join cache counters.
func (q *Query) PrepStats() PrepCacheStats { return q.preps.Stats() }

// PrepStats aggregates the prepared-join cache counters over every query
// currently held by the plan cache: the sum of each cached query's
// PrepStats. Size and Capacity sum too, so the ratio Size/Capacity keeps its
// "how full" meaning across the fleet of per-query caches.
func (c *PlanCache) PrepStats() PrepCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total PrepCacheStats
	for el := c.lru.Front(); el != nil; el = el.Next() {
		s := el.Value.(*planEntry).q.preps.Stats()
		total.Size += s.Size
		total.Capacity += s.Capacity
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Evictions += s.Evictions
	}
	return total
}

// ServerStats bundles the engine-side cache counters a serving tier exports:
// the plan cache (query text → compiled plan) and the prepared-join caches
// of the queries it holds. A /metrics endpoint can render this snapshot
// without importing any internal package.
type ServerStats struct {
	Plan PlanCacheStats
	Prep PrepCacheStats
}

// ServerStats returns the cache counters behind this plan cache in one
// snapshot.
func (c *PlanCache) ServerStats() ServerStats {
	return ServerStats{Plan: c.Stats(), Prep: c.PrepStats()}
}
