package server

import (
	"sync"

	"sitm/internal/store"
)

// planCache memoizes compiled query plans keyed by query fingerprint
// (queryjson.go). Invalidation is pointer equality on the store's
// dictionary/region snapshots, delegated to store.CompiledQuery.Valid: a
// stale hit is removed and recompiled, so rotation degrades one request
// to the uncached path instead of ever serving a stale plan (a plan
// compiled while a symbol was unknown is empty — serving it after the
// symbol arrives would silently drop rows). When the cache fills it is
// cleared wholesale: fingerprint populations are small and stable in
// steady state, so eviction sophistication buys nothing.
type planCache struct {
	max int

	mu sync.Mutex
	//sitm:guardedby mu
	entries map[string]*store.CompiledQuery
	//sitm:guardedby mu
	hits int64
	//sitm:guardedby mu
	misses int64
	//sitm:guardedby mu
	invalidations int64
}

func newPlanCache(max int) *planCache {
	return &planCache{max: max, entries: make(map[string]*store.CompiledQuery)}
}

// get returns the cached plan for fp if present and still valid for st.
// Stale entries are dropped (counted as invalidations) so the caller
// recompiles and re-puts. The lookup, the validity check and the counter
// update are one critical section, so a hit locks once. Valid only reads
// the store's snapshot pointers under their own locks, which are never
// held while taking this one.
func (c *planCache) get(st *store.Store, fp string) *store.CompiledQuery {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[fp]
	switch {
	case e == nil:
		c.misses++
		return nil
	case !e.Valid(st):
		delete(c.entries, fp)
		c.invalidations++
		c.misses++
		return nil
	}
	c.hits++
	return e
}

// put stores a freshly compiled plan. A concurrent put of the same
// fingerprint wins arbitrarily — both plans are correct for the snapshots
// they validated against.
func (c *planCache) put(fp string, cq *store.CompiledQuery) {
	c.mu.Lock()
	if len(c.entries) >= c.max {
		clear(c.entries)
	}
	c.entries[fp] = cq
	c.mu.Unlock()
}

// cacheStats is the wire shape of the cache counters.
type cacheStats struct {
	Size          int   `json:"size"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Invalidations int64 `json:"invalidations"`
}

func (c *planCache) stats() cacheStats {
	c.mu.Lock()
	st := cacheStats{
		Size:          len(c.entries),
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
	}
	c.mu.Unlock()
	return st
}
