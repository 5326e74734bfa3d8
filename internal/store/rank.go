package store

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sitm/internal/symtab"
)

// symRank orders a dictionary's ids by their symbols, so a SelectMOs reply
// sorts int32 ranks and decodes only the MOs it returns instead of
// decoding every match and sorting strings.
//
// The rank is built lazily, by the first reader that needs it, and never
// on the write path: Intern, Open and Checkpoint leave it alone. It covers
// the ids [0, n) of the snapshot it was built from; ids interned since are
// sorted by symbol per query and merged in. It is rebuilt only once the
// dictionary has doubled past n, so a writer interning MOs between queries
// costs O(log n) builds, not one per dictionary snapshot. A store's first
// SelectMOs after Open pays the O(n log n) build.
type symRank struct {
	cur atomic.Pointer[rankTable]

	mu sync.Mutex // serializes builds
	//sitm:guardedby mu
	builds int // builds so far, for tests
}

// rankTable is one immutable rank over the ids [0, len(order)).
type rankTable struct {
	rank  []int32 // rank[id]: the position of id's symbol among the ranked symbols
	order []int32 // order[r]: the id of rank r
}

// stale reports whether a dictionary of n symbols has doubled past t.
func (t *rankTable) stale(n int) bool {
	return n > len(t.order) && n >= 2*len(t.order)
}

// table returns the rank to order d's ids by, building it from d when
// there is none yet or d has doubled since the last build. While another
// reader rebuilds, a stale rank is returned rather than waited for: it is
// still exact, it only leaves more ids to merge.
func (r *symRank) table(d *symtab.Dict) *rankTable {
	t := r.cur.Load()
	if t != nil && !t.stale(d.Len()) {
		return t
	}
	if t != nil {
		if !r.mu.TryLock() {
			return t
		}
	} else {
		r.mu.Lock()
	}
	defer r.mu.Unlock()
	if t = r.cur.Load(); t != nil && !t.stale(d.Len()) {
		return t
	}
	n := d.Len()
	t = &rankTable{rank: make([]int32, n), order: make([]int32, n)}
	for id := range t.order {
		t.order[id] = int32(id)
	}
	slices.SortFunc(t.order, func(a, b int32) int { return strings.Compare(d.Symbol(a), d.Symbol(b)) })
	for pos, id := range t.order {
		t.rank[id] = int32(pos)
	}
	r.cur.Store(t)
	r.builds++
	return t
}

// key maps an id to its sort key: its rank when the table covers it, else
// the id itself. Ranks lie in [0, n) and uncovered ids in [n, ∞), so keys
// stay distinct per id, and covered ids sort first, in symbol order.
func (t *rankTable) key(id int32) int32 {
	if int(id) < len(t.rank) {
		return t.rank[id]
	}
	return id
}

// symbols returns the symbols of the keys in per — one ascending, distinct
// key list per shard, the shards' sets disjoint — in symbol order,
// consuming per. snap must cover every id the keys name. Covered keys are
// ranks: the shards' lists merge by their smallest head rank, and only the
// winner is decoded. Uncovered ones are decoded, sorted by symbol and
// merged in. No keys give a nil slice.
func (t *rankTable) symbols(snap *symtab.Dict, per [][]int32) []string {
	covered := int32(len(t.order))
	var fresh []string
	total := 0
	for i, keys := range per {
		k, _ := slices.BinarySearch(keys, covered)
		for _, id := range keys[k:] {
			fresh = append(fresh, snap.Symbol(id))
		}
		per[i] = keys[:k]
		total += len(keys)
	}
	if total == 0 {
		return nil
	}
	sort.Strings(fresh)
	out := make([]string, 0, total)
	for {
		next := -1
		for i, keys := range per {
			if len(keys) > 0 && (next < 0 || keys[0] < per[next][0]) {
				next = i
			}
		}
		if next < 0 {
			return append(out, fresh...)
		}
		sym := snap.Symbol(t.order[per[next][0]])
		per[next] = per[next][1:]
		for len(fresh) > 0 && fresh[0] < sym {
			out = append(out, fresh[0])
			fresh = fresh[1:]
		}
		out = append(out, sym)
	}
}
