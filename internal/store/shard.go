package store

import (
	"slices"
	"sync"

	"sitm/internal/core"
)

// shard is one horizontal slice of the store: the trajectories of the
// moving objects hashing here, with the shard's own lock, posting lists
// and zone maps. Everything inside is keyed by dense ids — cell,
// annotation-pair and region posting lists are slices indexed by interned
// id, candidates are int32 slots, and the write-time encoded traces ride
// beside the trajectories so sequence checks and the analytics handoff
// never look at a string again.
type shard struct {
	mu sync.RWMutex

	// Parallel per-slot columns (one entry per stored trajectory).
	//sitm:guardedby mu
	seqs []uint64 // global insertion sequence
	//sitm:guardedby mu
	trajs []core.Trajectory // live slots' trajectories, indexed slot − liveBase()
	//sitm:guardedby mu
	encs [][]int32 // interned Trace cells (write-time encoding)
	//sitm:guardedby mu
	anns [][]int32 // sorted distinct interned annotation-pair ids
	//sitm:guardedby mu
	moIDs []int32 // interned moving-object id
	//sitm:guardedby mu
	starts []int64 // trajectory span start, saturated unix nanos (O(1) tests)
	//sitm:guardedby mu
	ends []int64 // trajectory span end, saturated unix nanos

	//sitm:guardedby mu
	//sitm:owned
	byMO map[int32][]int32 // mo id → slots, append order
	//sitm:guardedby mu
	//sitm:owned
	byCell [][]int32 // cell id → slots visiting the cell (ascending)
	//sitm:guardedby mu
	//sitm:owned
	byPair [][]int32 // annotation-pair id → slots carrying it (ascending)
	//sitm:guardedby mu
	//sitm:owned
	byRegion [][]int32 // region index → slots touching the region (ascending)
	//sitm:guardedby mu
	//sitm:owned
	zones []liveZone // zone maps of the live slots, segBlockRows per zone
	//sitm:guardedby mu
	intervals int // total presence intervals stored
	//sitm:guardedby mu
	maxLen int // longest encoded trace (corpus scratch sizing)

	// blk is the lazily decoded prefix held by the shard's committed
	// segments (nil for in-memory stores and shards with none):
	// slots [0, blk.rowCount) are served by their blocks' columns through
	// the block cache, and only the live slots after them have trajs
	// entries. Its blocks' zone maps precede the live zones in the prune
	// loop (zoneSlots).
	//sitm:guardedby mu
	blk *shardBlocks

	// Generation-stamped distinct-cell detector: seen[id] == seenGen marks
	// "already posted during the current insert", giving first-occurrence
	// detection in O(L) with no per-insert allocation (the PrefixSpan
	// stamp-set discipline, §3.6).
	//sitm:guardedby mu
	seen []uint32
	//sitm:guardedby mu
	seenGen uint32
}

//sitm:locked
func (sh *shard) init() {
	sh.byMO = make(map[int32][]int32)
}

// posting returns the cell's posting list (nil when the shard has never
// seen the cell) — a bounds-checked slice index, no hashing.
//
//sitm:locked
//sitm:aliases
func (sh *shard) posting(cell int32) []int32 {
	if int(cell) >= len(sh.byCell) {
		return nil
	}
	return sh.byCell[cell]
}

// pairPosting returns the annotation pair's posting list, or nil.
//
//sitm:locked
//sitm:aliases
func (sh *shard) pairPosting(pair int32) []int32 {
	if int(pair) >= len(sh.byPair) {
		return nil
	}
	return sh.byPair[pair]
}

// regionPosting returns the region's posting list, or nil. Region indexes
// come from the attached RegionTable (see regions.go); without one the
// table is empty and everything misses.
//
//sitm:locked
//sitm:aliases
func (sh *shard) regionPosting(region int32) []int32 {
	if int(region) >= len(sh.byRegion) {
		return nil
	}
	return sh.byRegion[region]
}

// growCell extends the dense per-cell tables to cover the id.
//
//sitm:locked
func (sh *shard) growCell(cell int32) {
	for int(cell) >= len(sh.byCell) {
		sh.byCell = append(sh.byCell, nil)
	}
	for int(cell) >= len(sh.seen) {
		sh.seen = append(sh.seen, 0) // 0 never equals a live generation
	}
}

// addSlot appends the per-slot columns of one trajectory, folds it into
// the newest live zone (opening a fresh zone every segBlockRows slots)
// and indexes it. regs is the trajectory's sorted distinct region
// closure (nil without an attached region table). Every live write path —
// PutBatch and WAL recovery — goes through here; nothing is re-sorted or
// compacted, so an insert costs O(trace length).
//
//sitm:locked
func (sh *shard) addSlot(seq uint64, t core.Trajectory, moID int32, enc, ann, regs []int32) {
	slot := int32(len(sh.seqs))
	sh.seqs = append(sh.seqs, seq)
	sh.trajs = append(sh.trajs, t)
	sh.encs = append(sh.encs, enc)
	sh.anns = append(sh.anns, ann)
	sh.moIDs = append(sh.moIDs, moID)
	sh.starts = append(sh.starts, saturatingNanos(t.Start()))
	sh.ends = append(sh.ends, saturatingNanos(t.End()))
	sh.foldZone(slot, t.Trace)
	sh.indexSlot(slot, moID, enc, ann, regs)
}

// reserve makes room in the shard's columns for n more slots, so a
// recovery that knows how many rows it replays grows each column once.
//
//sitm:locked
func (sh *shard) reserve(n int) {
	sh.seqs = slices.Grow(sh.seqs, n)
	sh.trajs = slices.Grow(sh.trajs, n)
	sh.encs = slices.Grow(sh.encs, n)
	sh.anns = slices.Grow(sh.anns, n)
	sh.moIDs = slices.Grow(sh.moIDs, n)
	sh.starts = slices.Grow(sh.starts, n)
	sh.ends = slices.Grow(sh.ends, n)
}

// foldZone folds the live slot, whose columns are in place, into the
// newest live zone, opening a fresh zone every segBlockRows slots.
//
//sitm:locked
func (sh *shard) foldZone(slot int32, tr core.Trace) {
	if n := len(sh.zones); n == 0 || int(sh.zones[n-1].zone.rows) >= segBlockRows {
		sh.zones = append(sh.zones, liveZone{base: slot})
	}
	sh.zones[len(sh.zones)-1].zone.fold(sh.seqs[slot], sh.starts[slot], sh.ends[slot], tr, sh.encs[slot])
}

// adoptSegment swaps the shard's n oldest live slots for the blocks a
// committed checkpoint wrote from them, leaving the shard as a cold open
// would build it: the trajectory column keeps only the later rows, in a
// fresh array (a re-slice would keep the released trajectories
// reachable), and the live zones are refolded from the new liveBase. Slot
// ids do not change. O(blocks + live rows).
//
//sitm:locked
func (sh *shard) adoptSegment(n int, blocks []blockInfo, cache *blockCache) {
	if n == 0 {
		return // the shard gained no row: its segment holds no block
	}
	want := int(sh.liveBase()) + n
	sh.appendBlocks(blocks, cache)
	if int(sh.liveBase()) != want {
		panic("store: adopted blocks do not cover the checkpointed rows")
	}
	sh.trajs = append([]core.Trajectory(nil), sh.trajs[n:]...) // nil when empty
	sh.zones = nil
	for i, t := range sh.trajs {
		sh.foldZone(int32(want+i), t.Trace)
	}
}

// indexSlot adds one slot, whose columns are already in place, to the
// posting lists and the trace statistics. It is the one indexing routine:
// addSlot calls it for live rows and the segment decoder for
// checkpointed ones.
//
//sitm:locked
func (sh *shard) indexSlot(slot, moID int32, enc, ann, regs []int32) {
	sh.byMO[moID] = append(sh.byMO[moID], slot)
	sh.intervals += len(enc)
	if len(enc) > sh.maxLen {
		sh.maxLen = len(enc)
	}
	// Distinct cells in first-visit order via the stamp set: O(L).
	sh.seenGen++
	if sh.seenGen == 0 { // stamp wrap: reset and restart generations
		clear(sh.seen)
		sh.seenGen = 1
	}
	for _, id := range enc {
		sh.growCell(id)
		if sh.seen[id] != sh.seenGen {
			sh.seen[id] = sh.seenGen
			sh.byCell[id] = append(sh.byCell[id], slot)
		}
	}
	// Annotation pairs and regions arrive sorted-distinct, so each posting
	// list receives the slot exactly once and stays ascending.
	for _, p := range ann {
		for int(p) >= len(sh.byPair) {
			sh.byPair = append(sh.byPair, nil)
		}
		sh.byPair[p] = append(sh.byPair[p], slot)
	}
	for _, r := range regs {
		for int(r) >= len(sh.byRegion) {
			sh.byRegion = append(sh.byRegion, nil)
		}
		sh.byRegion[r] = append(sh.byRegion[r], slot)
	}
}

// spanOverlaps reports whether the slot's span intersects c's window. The
// nanos columns decide exactly unless the row's own span is saturated —
// an in-memory row outside the int64 nanosecond range, which is always
// live (durable stores reject such rows) — and then its trajectory's
// exact times do.
//
//sitm:locked
func (sh *shard) spanOverlaps(slot int32, c *cplan) bool {
	st, en := sh.starts[slot], sh.ends[slot]
	if saturated(st) || saturated(en) {
		return sh.spanOverlapsExact(slot, c)
	}
	return en >= c.fromN && st <= c.toN
}

// spanOverlapsExact is spanOverlaps for a row whose span is saturated;
// kept apart so the common nanos test inlines. Such a row is always live:
// a block's spans lie inside the int64 nanosecond range (decode rejects
// any other).
//
//sitm:locked
func (sh *shard) spanOverlapsExact(slot int32, c *cplan) bool {
	t := &sh.trajs[slot-sh.liveBase()]
	return !t.End().Before(c.from) && !t.Start().After(c.to)
}

// liveBase is the first live slot: the block-backed prefix's row count,
// 0 without one.
//
//sitm:locked
func (sh *shard) liveBase() int32 {
	if sh.blk == nil {
		return 0
	}
	return int32(sh.blk.rowCount)
}

// cellDuring reports whether the slot has a presence interval at c's cell
// intersecting c's window, reading a block-backed slot's interval nanos
// from its block's columns. A block that cannot be read back reports no
// match and sets ctx.err.
//
//sitm:locked
func (sh *shard) cellDuring(ctx *execCtx, slot int32, c *cplan) bool {
	base := sh.liveBase()
	if slot >= base {
		return liveCellDuring(&sh.trajs[slot-base], sh.encs[slot], c)
	}
	b := sh.blk.blockOf(slot)
	bc, err := sh.blk.cols(b)
	if err != nil {
		ctx.err = err
		return false
	}
	return bc.cellDuring(int(slot-sh.blk.blocks[b].base), c.id, c.fromN, c.toN)
}

// addRows appends the rows of the ascending slots to out: a block-backed
// slot as its block's columns plus a row index (each block's columns
// fetched once per run of its slots), a live slot as a pointer to its
// trajectory. Nothing is copied or materialized. A block that cannot be
// read back stops it with the block's error.
//
//sitm:locked
func (sh *shard) addRows(out *shardRows, slots []int32) error {
	base := sh.liveBase()
	var bc *blockCols
	var lo, hi int32 // the slots bc covers
	for _, slot := range slots {
		ref := rowRef{}
		if slot < base {
			if bc == nil || slot < lo || slot >= hi {
				b := sh.blk.blockOf(slot)
				var err error
				if bc, err = sh.blk.cols(b); err != nil {
					return err
				}
				lo = sh.blk.blocks[b].base
				hi = lo + sh.blk.blocks[b].zone.rows
			}
			ref.cols, ref.row = bc, slot-lo
		} else {
			ref.live = &sh.trajs[slot-base]
		}
		out.keys = append(out.keys, sh.seqs[slot])
		out.refs = append(out.refs, ref)
	}
	return nil
}

// addAll appends every slot's row to out in slot order, decoding each
// block once. A block that cannot be read back stops it with the block's
// error.
//
//sitm:locked
func (sh *shard) addAll(out *shardRows) error {
	out.keys = append(out.keys, sh.seqs...)
	if bs := sh.blk; bs != nil {
		for b := range bs.blocks {
			bc, err := bs.cols(b)
			if err != nil {
				return err
			}
			for r := range bs.blocks[b].zone.rows {
				out.refs = append(out.refs, rowRef{cols: bc, row: r})
			}
		}
	}
	for i := range sh.trajs {
		out.refs = append(out.refs, rowRef{live: &sh.trajs[i]})
	}
	return nil
}

// insertBatch inserts the batch members routed to this shard under the
// (held) shard lock. idxs are indexes into ts; trajectory ts[i] carries
// sequence base+i, so the batch is observed in argument order. regions
// resolves each trajectory's region closure (it must be called under the
// shard lock, see Store.PutBatch).
//
//sitm:locked
func (sh *shard) insertBatch(base uint64, ts []core.Trajectory, idxs []int32, moIDs []int32, encs, anns [][]int32, regions func(core.Trajectory) []int32) {
	for _, i := range idxs {
		t := ts[i]
		sh.addSlot(base+uint64(i), t, moIDs[i], encs[i], anns[i], regions(t))
	}
}
