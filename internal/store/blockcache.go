package store

import "sync"

// blockCache is the bounded cache holding the decoded residual columns of
// a store's segment blocks (DESIGN.md §3.12). Cold Open decodes only the
// cheap eager columns of a v2 segment; the string-heavy residual of each
// block — transitions, per-point times, annotations — decodes on first
// touch into flat columns (blockCols) and parks here, charged its exact
// footprint. Eviction is CLOCK (second chance) over a circular list: a
// block enters just behind the hand with its reference bit set, a hit
// sets the bit again, and the hand clears bits until it finds an
// unreferenced victim, so a block survives at least one full turn of the
// hand after its last use and repeatedly-touched blocks survive scans.
//
// Each durable store owns one cache with one byte budget, shared by all
// of its shards: a block is cached whenever it fits the whole budget.
type blockCache struct {
	// capBytes is the byte budget (immutable).
	capBytes int64

	mu sync.Mutex
	//sitm:guardedby mu
	entries map[blockKey]*blockEntry
	//sitm:guardedby mu
	hand *blockEntry // CLOCK hand: next eviction candidate (nil when empty)
	//sitm:guardedby mu
	bytes int64
	//sitm:guardedby mu
	hits int64
	//sitm:guardedby mu
	misses int64
	//sitm:guardedby mu
	evictions int64
}

// DefaultBlockCacheBytes is the cache budget used when
// Options.BlockCacheBytes is zero.
const DefaultBlockCacheBytes int64 = 64 << 20

// blockKey addresses one decoded block: the shard's block prefix plus the
// block's index within it.
type blockKey struct {
	bs    *shardBlocks
	block int32
}

// blockEntry is one cached block: its decoded columns (charged their
// footprint, cols.size), the CLOCK reference bit and its neighbours on
// the circular list.
type blockEntry struct {
	key        blockKey
	cols       *blockCols
	ref        bool
	prev, next *blockEntry
}

// newBlockCache returns a cache bounded by capBytes. Zero selects
// DefaultBlockCacheBytes; a negative budget caches nothing (every block
// access re-decodes — correct, just slower).
func newBlockCache(capBytes int64) *blockCache {
	if capBytes == 0 {
		capBytes = DefaultBlockCacheBytes
	}
	return &blockCache{capBytes: max(capBytes, 0), entries: make(map[blockKey]*blockEntry)}
}

// get returns the cached columns of a block, marking it recently used.
// The hit path is allocation-free (guarded by AllocsPerRun in the block
// tests).
//
//sitm:hotpath
func (c *blockCache) get(key blockKey) (*blockCols, bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		e.ref = true
		c.hits++
		c.mu.Unlock()
		return e.cols, true
	}
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// put inserts a freshly decoded block, evicting CLOCK victims until it
// fits. A block larger than the whole budget is served uncached. A racing
// insert of the same key keeps the first copy.
func (c *blockCache) put(key blockKey, bc *blockCols) {
	size := bc.size
	if size > c.capBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	for c.bytes+size > c.capBytes {
		if e := c.hand; e.ref {
			e.ref = false
			c.hand = e.next
		} else {
			c.remove(e)
		}
	}
	// Just behind the hand: the last entry the hand reaches.
	e := &blockEntry{key: key, cols: bc, ref: true}
	if c.hand == nil {
		e.prev, e.next = e, e
		c.hand = e
	} else {
		e.prev, e.next = c.hand.prev, c.hand
		e.prev.next, c.hand.prev = e, e
	}
	c.entries[key] = e
	c.bytes += size
}

// remove evicts e, moving the hand past it when it points at e.
//
//sitm:locked
func (c *blockCache) remove(e *blockEntry) {
	delete(c.entries, e.key)
	c.bytes -= e.cols.size
	c.evictions++
	if e.next == e {
		c.hand = nil
		return
	}
	e.prev.next, e.next.prev = e.next, e.prev
	if c.hand == e {
		c.hand = e.next
	}
}

// BlockCacheStats describes a store's block cache: occupancy and traffic.
type BlockCacheStats struct {
	Entries   int   // cached blocks
	Bytes     int64 // bytes held: the summed footprints of the cached columns
	Hits      int64
	Misses    int64
	Evictions int64
}

// stats snapshots the cache counters.
func (c *blockCache) stats() BlockCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return BlockCacheStats{Entries: len(c.entries), Bytes: c.bytes, Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
