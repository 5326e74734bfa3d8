package store

import "sync"

// BlockCache is the bounded, sharded cache holding the decoded residual
// columns of segment blocks (DESIGN.md §3.12). Cold Open decodes only the
// cheap eager columns of a v2 segment; the string-heavy residual of each
// block — transitions, per-point times, annotations — decodes on first
// touch into flat columns (blockCols) and parks here, charged its exact
// footprint. Eviction is CLOCK (second chance): a hit
// sets the entry's reference bit, the eviction hand clears bits until it
// finds an unreferenced victim, so repeatedly-touched blocks survive scans.
//
// One cache may back many stores: pass the same *BlockCache via
// Options.BlockCache to every read-only replica of a serving fleet and the
// replicas share one residual budget instead of N. Keys embed a
// process-unique segment id, so segments of different stores (or
// generations) never collide.
type BlockCache struct {
	// capPerShard is the byte budget of each cache shard (immutable).
	capPerShard int64
	shards      [blockCacheShards]blockCacheShard
}

const blockCacheShards = 8

// DefaultBlockCacheBytes is the cache budget used when
// Options.BlockCacheBytes is zero and no shared cache is supplied.
const DefaultBlockCacheBytes int64 = 64 << 20

// blockKey addresses one decoded block: the process-unique segment id
// plus the block's index within its segment.
type blockKey struct {
	seg   uint64
	block int32
}

// blockEntry is one cached block: its decoded columns (charged their
// footprint, cols.size) and the CLOCK reference bit.
type blockEntry struct {
	key  blockKey
	cols *blockCols
	ref  bool
}

type blockCacheShard struct {
	mu sync.Mutex
	//sitm:guardedby mu
	entries map[blockKey]int // key → position in ring
	//sitm:guardedby mu
	ring []blockEntry
	//sitm:guardedby mu
	hand int // CLOCK hand: next eviction candidate
	//sitm:guardedby mu
	bytes int64
	//sitm:guardedby mu
	hits int64
	//sitm:guardedby mu
	misses int64
	//sitm:guardedby mu
	evictions int64
}

// NewBlockCache returns a cache bounded by capBytes across all shards.
// Zero selects DefaultBlockCacheBytes; a negative budget caches nothing
// (every block access re-decodes — correct, just slower).
func NewBlockCache(capBytes int64) *BlockCache {
	if capBytes == 0 {
		capBytes = DefaultBlockCacheBytes
	}
	if capBytes < 0 {
		capBytes = 0
	}
	c := &BlockCache{capPerShard: (capBytes + blockCacheShards - 1) / blockCacheShards}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[blockKey]int)
		s.mu.Unlock()
	}
	return c
}

//sitm:hotpath
func (c *BlockCache) shardOf(key blockKey) *blockCacheShard {
	h := key.seg*0x9E3779B97F4A7C15 + uint64(uint32(key.block))
	h ^= h >> 32
	return &c.shards[h%blockCacheShards]
}

// get returns the cached columns of a block, marking it recently used.
// The hit path is allocation-free (guarded by AllocsPerRun in the block
// tests).
//
//sitm:hotpath
func (c *BlockCache) get(key blockKey) (*blockCols, bool) {
	s := c.shardOf(key)
	s.mu.Lock()
	if i, ok := s.entries[key]; ok {
		s.ring[i].ref = true
		bc := s.ring[i].cols
		s.hits++
		s.mu.Unlock()
		return bc, true
	}
	s.misses++
	s.mu.Unlock()
	return nil, false
}

// put inserts a freshly decoded block, evicting CLOCK victims until it
// fits. A block larger than a whole shard budget is served uncached. A
// racing insert of the same key keeps the first copy.
func (c *BlockCache) put(key blockKey, bc *blockCols) {
	size := bc.size
	if size > c.capPerShard {
		return
	}
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		return
	}
	for s.bytes+size > c.capPerShard && len(s.ring) > 0 {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		e := &s.ring[s.hand]
		if e.ref {
			e.ref = false
			s.hand++
			continue
		}
		s.remove(s.hand)
	}
	s.entries[key] = len(s.ring)
	s.ring = append(s.ring, blockEntry{key: key, cols: bc})
	s.bytes += size
}

// remove drops ring[i] (swap-remove; CLOCK tolerates the order
// perturbation) and fixes the moved entry's map position.
//
//sitm:locked
func (s *blockCacheShard) remove(i int) {
	e := &s.ring[i]
	delete(s.entries, e.key)
	s.bytes -= e.cols.size
	s.evictions++
	last := len(s.ring) - 1
	if i != last {
		s.ring[i] = s.ring[last]
		s.entries[s.ring[i].key] = i
	}
	s.ring[last] = blockEntry{}
	s.ring = s.ring[:last]
}

// BlockCacheStats describes a cache's occupancy and traffic, summed over
// its internal shards.
type BlockCacheStats struct {
	Entries   int   // cached blocks
	Bytes     int64 // bytes held: the summed footprints of the cached columns
	Hits      int64
	Misses    int64
	Evictions int64
}

// Stats snapshots the cache counters.
func (c *BlockCache) Stats() BlockCacheStats {
	var out BlockCacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out.Entries += len(s.ring)
		out.Bytes += s.bytes
		out.Hits += s.hits
		out.Misses += s.misses
		out.Evictions += s.evictions
		s.mu.Unlock()
	}
	return out
}
