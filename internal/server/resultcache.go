package server

import (
	"xqtp"
	"xqtp/internal/lru"
)

// cacheKey identifies one cacheable response: everything that determines the
// bytes a request streams. The corpus generation is the invalidation hook —
// every AddCorpus and ExtendCorpus registers the name under a new
// generation, so every entry computed against the old registration stops
// matching without any scan or flush, even one stored by a request that
// finished after the swap. Workers are absent on purpose: the result is
// identical at any worker count (the corpus-order merge guarantees it), so
// requests differing only in parallelism share an entry.
type cacheKey struct {
	corpus string
	gen    uint64
	query  string
	alg    string
	format string
	rows   int64 // effective row budget (0: unlimited)
	bytes  int64 // effective byte budget (0: unlimited)
}

// cacheEntry is one stored response: the rendered item lines (without the
// summary, which is re-rendered per hit so it can say cached=true) plus the
// summary fields of the original run.
type cacheEntry struct {
	key  cacheKey
	body []byte
	info xqtp.RunInfo
	// status is the original run's terminal status: "ok" or "limit-reached"
	// (nothing else is cached — a timeout's prefix depends on wall clock, not
	// on the request, so replaying it would be wrong).
	status string
}

// resultCache is a bounded LRU over rendered responses, limited both by
// entry count and by total stored bytes. Entries larger than the per-entry
// cap are never stored: one huge result must not evict the whole working set
// of small hot answers. A nil *resultCache is the disabled cache.
type resultCache struct {
	c        *lru.Cache[cacheKey, *cacheEntry]
	perEntry int64
}

func newResultCache(maxN int, maxBytes int64) *resultCache {
	return &resultCache{
		c:        lru.New[cacheKey](maxN, maxBytes, func(e *cacheEntry) int64 { return int64(len(e.body)) }),
		perEntry: max(maxBytes/8, 1),
	}
}

// get returns the cached entry for key, marking it most recently used.
func (rc *resultCache) get(key cacheKey) (*cacheEntry, bool) {
	if rc == nil {
		return nil, false
	}
	return rc.c.Get(key)
}

// put stores a completed response, evicting from the LRU tail until both
// bounds hold. Oversized bodies are dropped silently.
func (rc *resultCache) put(e *cacheEntry) {
	if rc == nil || int64(len(e.body)) > rc.perEntry {
		return
	}
	rc.c.Add(e.key, e)
}

// invalidateCorpus drops every entry of the named corpus. The generation key
// already makes stale entries unreachable; this proactive sweep just returns
// their bytes to the budget immediately instead of waiting for LRU aging.
func (rc *resultCache) invalidateCorpus(name string) {
	if rc == nil {
		return
	}
	rc.c.Sweep(func(k cacheKey, _ *cacheEntry) bool { return k.corpus == name })
}

func (rc *resultCache) stats() lru.Stats {
	if rc == nil {
		return lru.Stats{}
	}
	return rc.c.Stats()
}
