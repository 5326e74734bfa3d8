package store

import (
	"errors"
	"slices"
	"sync"

	"sitm/internal/core"
	"sitm/internal/indoor"
	"sitm/internal/parallel"
	"sitm/internal/symtab"
)

// This file wires the indoor hierarchy into the storage engine. A compiled
// indoor.RegionTable attached to the store turns every hierarchy cell into
// a queryable region: the shards maintain per-region posting lists
// incrementally at write time (a trajectory's slot is appended to the
// postings of every region its cells roll up into), and the query planner
// (query.go) binds the table's per-cell ancestor closures to the store's
// frozen cell-dictionary snapshots, so a region predicate executes as
// integer posting-list algebra instead of an expand-to-leaf string loop.

// Errors reported by region queries.
var (
	// ErrNoRegions is returned when a region predicate is used on a store
	// without an attached region table.
	ErrNoRegions = errors.New("store: no region table attached (call AttachRegions)")
	// ErrUnknownRegion is returned when a region predicate names a
	// (layer, id) pair the attached table does not contain.
	ErrUnknownRegion = errors.New("store: unknown region")
)

// regionState is the store's attached hierarchy plus the dictionary-bound
// closure cache. The closures bind to a frozen dict snapshot; because
// SyncDict.Freeze is pointer-stable while the alphabet is unchanged, the
// cache key is the snapshot pointer itself and a rebind happens exactly
// when the stored cell alphabet grew.
type regionState struct {
	mu sync.RWMutex
	//sitm:guardedby mu
	rt *indoor.RegionTable
	//sitm:guardedby mu
	snap *symtab.Dict // the frozen dict closures are bound to
	//sitm:guardedby mu
	closures [][]int32 // interned cell id → sorted region closure
}

// AttachRegions attaches a compiled region table (indoor.CompileRegions)
// to the store and (re)builds the per-shard region posting lists for the
// trajectories already stored. Subsequent Put/PutBatch maintain the
// postings incrementally. Attaching nil detaches. The rebuild takes each
// shard's write lock in turn and binds the cell closures to a dictionary
// snapshot taken under that lock, so the snapshot covers every cell id
// the shard holds (a writer interns before it takes the shard lock);
// queries running concurrently with an attach observe either the old or
// the new region view per shard.
func (s *Store) AttachRegions(rt *indoor.RegionTable) {
	s.regions.mu.Lock()
	s.regions.rt = rt
	s.regions.snap = nil
	s.regions.closures = nil
	s.regions.mu.Unlock()
	// One bind per distinct snapshot the shards see.
	var bindMu sync.Mutex
	var bound *symtab.Dict
	var closures [][]int32
	bind := func(snap *symtab.Dict) [][]int32 {
		bindMu.Lock()
		defer bindMu.Unlock()
		if snap != bound {
			bound, closures = snap, rt.BindClosures(snap.Len(), snap.Symbol)
		}
		return closures
	}
	parallel.ForEach(len(s.shards), func(i int) {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.byRegion = nil
		if rt != nil {
			// Resolve against the captured table, not the live field: a
			// racing attach may have replaced s.regions.rt, and indexes from
			// a different table must not land in this rebuild's postings
			// (the racer's own rebuild overwrites them wholesale anyway).
			// Closures are resolved from the write-time encoded traces, not
			// the trajectories, so a lazily held segment prefix (sh.blk)
			// contributes without materializing a single residual block.
			sh.byRegion = regionPostings(rt.NumRegions(), bind(s.cells.Freeze()), sh.encs)
		}
		sh.mu.Unlock()
	})
}

// regionPostings builds every region's posting list over the encoded
// traces encs (slot = index): slot s is posted to each region in the
// closure of any cell it visits, once — a per-region last-slot marker
// replaces a per-slot sort. Two passes, counting then filling, carve
// exact-size lists from one array; each list's cap is its length, so a
// writer's later append moves it rather than overwrite its neighbour.
// closures[id] must exist for every id in encs.
func regionPostings(nRegions int, closures, encs [][]int32) [][]int32 {
	last := make([]int32, nRegions) // slot+1 last posted per region
	counts := make([]int, nRegions)
	visit := func(post func(r int32, slot int32)) {
		clear(last)
		for slot, enc := range encs {
			mark, prev := int32(slot)+1, int32(-1)
			for _, id := range enc {
				if id == prev {
					continue // a stalled detection repeats its whole closure
				}
				prev = id
				for _, r := range closures[id] {
					if last[r] != mark {
						last[r] = mark
						post(r, int32(slot))
					}
				}
			}
		}
	}
	visit(func(r, _ int32) { counts[r]++ })
	total := 0
	for _, n := range counts {
		total += n
	}
	flat := make([]int32, total)
	out := make([][]int32, nRegions)
	off := 0
	for r, n := range counts {
		if n > 0 {
			out[r] = flat[off : off : off+n]
			off += n
		}
	}
	visit(func(r, slot int32) { out[r] = append(out[r], slot) })
	return out
}

// Regions returns the attached region table, or nil.
func (s *Store) Regions() *indoor.RegionTable {
	s.regions.mu.RLock()
	rt := s.regions.rt
	s.regions.mu.RUnlock()
	return rt
}

// trajectoryRegions resolves a trajectory's sorted distinct region closure
// — the union of its cells' ancestor closures — against the attached
// table; nil without one. Writers call it under the shard lock, which
// orders every insert against AttachRegions' per-shard rebuild: an insert
// that runs before the rebuild is recomputed by it, an insert after it
// already sees the new table.
func (s *Store) trajectoryRegions(t core.Trajectory) []int32 {
	s.regions.mu.RLock()
	rt := s.regions.rt
	s.regions.mu.RUnlock()
	return regionsOf(rt, t)
}

// regionsOf unions the trace cells' ancestor closures under one table.
// Consecutive same-cell intervals are skipped before the union (a stalled
// detection repeats its whole closure), and the distinct pass is
// O(n log n), keeping long traces cheap under the shard write lock.
func regionsOf(rt *indoor.RegionTable, t core.Trajectory) []int32 {
	if rt == nil {
		return nil
	}
	var regs []int32
	prev := ""
	for _, p := range t.Trace {
		if p.Cell == prev {
			continue
		}
		prev = p.Cell
		regs = append(regs, rt.Closure(p.Cell)...)
	}
	if len(regs) < 2 {
		return regs
	}
	slices.Sort(regs)
	return slices.Compact(regs)
}

// boundClosures returns the attached table plus the per-cell ancestor
// closures bound to the current cell-dictionary snapshot, rebinding only
// when the alphabet grew since the cached bind (the snapshot pointer is
// the staleness signal). The second result is the snapshot the closures
// index — closures[id] is valid for every id < snap.Len().
func (s *Store) boundClosures() (*indoor.RegionTable, [][]int32, *symtab.Dict) {
	snap := s.cells.Freeze()
	s.regions.mu.RLock()
	rt, cached, cachedSnap := s.regions.rt, s.regions.closures, s.regions.snap
	s.regions.mu.RUnlock()
	if rt == nil {
		return nil, nil, nil
	}
	if cachedSnap == snap {
		return rt, cached, snap
	}
	closures := rt.BindClosures(snap.Len(), snap.Symbol)
	s.regions.mu.Lock()
	// Another binder may have won the race; keep whichever is newest by
	// re-checking the attach (rt) is unchanged before caching.
	if s.regions.rt == rt {
		s.regions.snap = snap
		s.regions.closures = closures
	}
	s.regions.mu.Unlock()
	return rt, closures, snap
}
