package physical

import (
	"container/list"
	"sync"

	"xqtp/internal/join"
	"xqtp/internal/pattern"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// DefaultPrepCacheSize bounds a PrepCache built by NewPrepCache. One entry
// per (pattern, document, algorithm) is tiny — resolved stream slices and a
// validated pattern reference — but each entry pins its document's tree, so
// the bound is what lets a long-lived query serve an unbounded stream of
// transient documents (or a corpus larger than memory should hold twice)
// without accreting every tree it ever touched.
const DefaultPrepCacheSize = 4096

// PrepCache memoizes join.Prepare results per (pattern, document,
// algorithm): the compile-once piece of the serving path. A cache owned by a
// compiled query and threaded into every Runtime that runs it makes repeated
// Run calls skip pattern validation and stream resolution entirely.
//
// The cache is a bounded LRU: least-recently-used preparations are evicted
// once the cap is exceeded (re-preparing is cheap and idempotent, so
// eviction only costs time). All methods are safe for concurrent use.
type PrepCache struct {
	mu      sync.Mutex
	max     int
	lru     *list.List // front = most recently used; values are *prepEntry
	entries map[prepKey]*list.Element

	hits, misses, evictions uint64
}

type prepKey struct {
	pat  *pattern.Pattern
	tree *xdm.Tree
	alg  join.Algorithm
}

type prepEntry struct {
	key prepKey
	p   *join.Prepared
}

// NewPrepCache returns an empty cache with the default bound.
func NewPrepCache() *PrepCache { return NewPrepCacheSize(DefaultPrepCacheSize) }

// NewPrepCacheSize returns an empty cache holding at most size preparations
// (size <= 0 falls back to DefaultPrepCacheSize).
func NewPrepCacheSize(size int) *PrepCache {
	if size <= 0 {
		size = DefaultPrepCacheSize
	}
	return &PrepCache{
		max:     size,
		lru:     list.New(),
		entries: make(map[prepKey]*list.Element, min(size, 64)),
	}
}

// Prepared returns the cached prepared pattern, building and caching it on
// first use. The preparation itself runs
// outside the lock, so a large document's stream resolution never blocks
// hits; concurrent misses on the same key may prepare twice, and the first
// stored entry wins.
func (pc *PrepCache) Prepared(alg join.Algorithm, ix *xmlstore.Index, pat *pattern.Pattern) (*join.Prepared, error) {
	key := prepKey{pat: pat, tree: ix.Tree, alg: alg}
	pc.mu.Lock()
	if el, ok := pc.entries[key]; ok {
		pc.lru.MoveToFront(el)
		pc.hits++
		p := el.Value.(*prepEntry).p
		pc.mu.Unlock()
		return p, nil
	}
	pc.misses++
	pc.mu.Unlock()

	p, err := join.Prepare(alg, ix, pat)
	if err != nil {
		return nil, err
	}

	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[key]; ok {
		pc.lru.MoveToFront(el)
		return el.Value.(*prepEntry).p, nil
	}
	pc.entries[key] = pc.lru.PushFront(&prepEntry{key: key, p: p})
	for pc.lru.Len() > pc.max {
		oldest := pc.lru.Back()
		pc.lru.Remove(oldest)
		delete(pc.entries, oldest.Value.(*prepEntry).key)
		pc.evictions++
	}
	return p, nil
}

// PrepCacheStats is a snapshot of cache activity.
type PrepCacheStats struct {
	Size      int    // entries currently cached
	Capacity  int    // maximum entries
	Hits      uint64 // lookups served from cache
	Misses    uint64 // lookups that prepared
	Evictions uint64 // entries dropped by the LRU bound
}

// Stats returns a snapshot of the cache counters.
func (pc *PrepCache) Stats() PrepCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PrepCacheStats{
		Size:      pc.lru.Len(),
		Capacity:  pc.max,
		Hits:      pc.hits,
		Misses:    pc.misses,
		Evictions: pc.evictions,
	}
}
