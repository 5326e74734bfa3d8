package store

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"sitm/internal/core"
	"sitm/internal/indoor"
)

// This file is the semantic query planner: a small composable query AST
// (Cell, Region, TimeOverlap, ByMO, HasAnnotation, Through, ThroughRegions,
// CellDuring, And, Or) compiled once per query against the store's
// dictionaries and region binding, then executed per shard as interned
// posting-list and bitmap algebra. Compilation resolves every string to a
// dense id (an unknown symbol statically collapses the plan to empty, and
// a region reference binds its membership bitmap over the frozen cell
// dictionary); execution orders conjuncts by estimated selectivity —
// posting lengths, and for a time window the rows of the zones it touches
// — so the cheapest predicate materialises the candidate slots and every
// other one narrows them by trimmed intersection or a constant-time
// per-slot test. The three pre-planner query methods
// (Overlapping, InCellDuring, ThroughSequence) are canned plans on this
// engine and produce bit-identical results to their hand-rolled
// predecessors.

// Query is one node of the composable query AST. Build queries with the
// constructors below and run them with Store.Select or Store.SelectMOs.
type Query interface{ queryNode() }

type cellQ struct{ name string }
type regionQ struct{ ref indoor.RegionRef }
type timeQ struct{ from, to time.Time }
type moQ struct{ mo string }
type annQ struct{ key, value string }
type throughQ struct{ cells []string }
type throughRegionsQ struct{ refs []indoor.RegionRef }
type cellDuringQ struct {
	cell     string
	from, to time.Time
}
type andQ struct{ kids []Query }
type orQ struct{ kids []Query }

func (cellQ) queryNode()           {}
func (regionQ) queryNode()         {}
func (timeQ) queryNode()           {}
func (moQ) queryNode()             {}
func (annQ) queryNode()            {}
func (throughQ) queryNode()        {}
func (throughRegionsQ) queryNode() {}
func (cellDuringQ) queryNode()     {}
func (andQ) queryNode()            {}
func (orQ) queryNode()             {}

// Cell matches trajectories visiting the cell at least once.
func Cell(name string) Query { return cellQ{name} }

// Region matches trajectories touching any cell of the region's subtree —
// a hierarchy cell addressed as (layer, id), e.g. Region("Wing", "denon").
// Requires an attached region table (Store.AttachRegions).
func Region(layer, id string) Query { return regionQ{indoor.RegionRef{Layer: layer, ID: id}} }

// TimeOverlap matches trajectories whose time span intersects [from, to]
// (inclusive bounds).
func TimeOverlap(from, to time.Time) Query { return timeQ{from, to} }

// ByMO matches the trajectories of one moving object.
func ByMO(mo string) Query { return moQ{mo} }

// HasAnnotation matches trajectories whose trajectory-level annotation set
// holds value under key.
func HasAnnotation(key, value string) Query { return annQ{key, value} }

// Through matches trajectories whose deduplicated cell sequence contains
// the given cells consecutively in order (the ThroughSequence predicate).
func Through(cells ...string) Query { return throughQ{cells} }

// ThroughRegions matches trajectories whose deduplicated cell sequence can
// be split, somewhere, into consecutive non-empty blocks lying in the given
// regions in order — "passed through Wing Denon then Floor denon:1". The
// regions may live at different hierarchy layers. Requires an attached
// region table.
func ThroughRegions(refs ...indoor.RegionRef) Query { return throughRegionsQ{refs} }

// CellDuring matches trajectories with a presence interval at the cell
// intersecting [from, to] — the interval-precise predicate behind
// InCellDuring, sharper than And(Cell, TimeOverlap).
func CellDuring(cell string, from, to time.Time) Query { return cellDuringQ{cell, from, to} }

// And matches trajectories satisfying every sub-query.
func And(qs ...Query) Query { return andQ{qs} }

// Or matches trajectories satisfying at least one sub-query.
func Or(qs ...Query) Query { return orQ{qs} }

// ---- Compilation --------------------------------------------------------

type ckind uint8

const (
	kEmpty ckind = iota // statically unsatisfiable (unknown symbol)
	kCell
	kRegion
	kPair
	kMO
	kTime
	kCellDuring
	kThrough
	kThroughRegions
	kAnd
	kOr
)

// cplan is a compiled query node: every symbol resolved to a dense id,
// region membership bound as bitmaps over the frozen cell dictionary.
type cplan struct {
	kind     ckind
	id       int32 // kCell / kPair / kMO / kRegion / kCellDuring cell id
	from, to time.Time
	fromN    int64 // kTime / kCellDuring: from, to as saturatingNanos
	toN      int64
	run      []int32    // kThrough: interned cell run
	regs     []int32    // kThroughRegions: region indexes, run order
	masks    [][]uint64 // kThroughRegions: per-run-member cell bitmaps
	maskLen  int32      // kThroughRegions: cell ids the masks cover (snapshot length)
	kids     []*cplan
}

var emptyPlan = &cplan{kind: kEmpty}

// compile resolves the AST against the store's dictionaries and region
// binding. It returns an error for structurally invalid queries (nil or
// empty nodes, region predicates without an attached table, unknown region
// references); unknown cells, MOs and annotation pairs are not errors —
// they compile to statically empty plans, mirroring the nil results of the
// canned query methods.
func (s *Store) compile(q Query) (*cplan, error) {
	switch n := q.(type) {
	case nil:
		return nil, fmt.Errorf("store: nil query")
	case cellQ:
		id, ok := s.cells.Lookup(n.name)
		if !ok {
			return emptyPlan, nil
		}
		return &cplan{kind: kCell, id: id}, nil
	case moQ:
		id, ok := s.mos.Lookup(n.mo)
		if !ok {
			return emptyPlan, nil
		}
		return &cplan{kind: kMO, id: id}, nil
	case annQ:
		id, ok := s.pairs.Lookup(n.key + "\x00" + n.value)
		if !ok {
			return emptyPlan, nil
		}
		return &cplan{kind: kPair, id: id}, nil
	case timeQ:
		return &cplan{kind: kTime, from: n.from, to: n.to, fromN: saturatingNanos(n.from), toN: saturatingNanos(n.to)}, nil
	case cellDuringQ:
		id, ok := s.cells.Lookup(n.cell)
		if !ok {
			return emptyPlan, nil
		}
		return &cplan{kind: kCellDuring, id: id, from: n.from, to: n.to, fromN: saturatingNanos(n.from), toN: saturatingNanos(n.to)}, nil
	case regionQ:
		rt := s.Regions()
		if rt == nil {
			return nil, ErrNoRegions
		}
		idx, ok := rt.Region(n.ref.Layer, n.ref.ID)
		if !ok {
			return nil, fmt.Errorf("%w: %v", ErrUnknownRegion, n.ref)
		}
		return &cplan{kind: kRegion, id: idx}, nil
	case throughQ:
		if len(n.cells) == 0 {
			return nil, fmt.Errorf("store: Through needs at least one cell")
		}
		run := make([]int32, len(n.cells))
		for i, c := range n.cells {
			id, ok := s.cells.Lookup(c)
			if !ok {
				return emptyPlan, nil
			}
			run[i] = id
		}
		return &cplan{kind: kThrough, run: run}, nil
	case throughRegionsQ:
		if len(n.refs) == 0 {
			return nil, fmt.Errorf("store: ThroughRegions needs at least one region")
		}
		rt, closures, _ := s.boundClosures()
		if rt == nil {
			return nil, ErrNoRegions
		}
		c := &cplan{kind: kThroughRegions, maskLen: int32(len(closures))}
		for _, ref := range n.refs {
			idx, ok := rt.Region(ref.Layer, ref.ID)
			if !ok {
				return nil, fmt.Errorf("%w: %v", ErrUnknownRegion, ref)
			}
			c.regs = append(c.regs, idx)
			c.masks = append(c.masks, indoor.RegionMask(closures, idx))
		}
		return c, nil
	case andQ:
		if len(n.kids) == 0 {
			return nil, fmt.Errorf("store: empty And")
		}
		out := &cplan{kind: kAnd}
		for _, kid := range n.kids {
			ck, err := s.compile(kid)
			if err != nil {
				return nil, err
			}
			switch ck.kind {
			case kEmpty:
				return emptyPlan, nil // ∧ false ≡ false
			case kAnd:
				out.kids = append(out.kids, ck.kids...)
			default:
				out.kids = append(out.kids, ck)
			}
		}
		if len(out.kids) == 1 {
			return out.kids[0], nil
		}
		return out, nil
	case orQ:
		if len(n.kids) == 0 {
			return nil, fmt.Errorf("store: empty Or")
		}
		out := &cplan{kind: kOr}
		for _, kid := range n.kids {
			ck, err := s.compile(kid)
			if err != nil {
				return nil, err
			}
			switch ck.kind {
			case kEmpty: // ∨ false ≡ identity
			case kOr:
				out.kids = append(out.kids, ck.kids...)
			default:
				out.kids = append(out.kids, ck)
			}
		}
		switch len(out.kids) {
		case 0:
			return emptyPlan, nil
		case 1:
			return out.kids[0], nil
		}
		return out, nil
	default:
		return nil, fmt.Errorf("store: unknown query node %T", q)
	}
}

// ---- Per-shard execution -------------------------------------------------

// execCtx carries the per-shard execution scratch: the shard itself, a
// reusable dedup buffer for sequence-run checks, two reusable DP rows for
// region runs, the region-membership fallback for cells interned after
// the plan's dictionary snapshot, and two work counts: the zones the prune
// loop could neither skip nor take whole, and the slots and posting
// entries the plan examined.
type execCtx struct {
	s            *Store
	sh           *shard
	dedup        []int32
	reach        []bool
	next         []bool
	running      *cplan // kThroughRegions node the membership test binds to
	err          error  // the first block read-back failure; the plan's result is void
	scannedZones int    // zones tested slot by slot (zoneSlots)
	probedZones  int    // kCellDuring zones whose posting range was searched
	// examined counts the slots the plan tests or takes whole from a
	// covered zone, plus the posting entries its intersections visit and
	// the entries its unions sort. It leaves out the O(zones) zone walks
	// (shard.windowRows, the prune loop of zoneSlots) and the O(log n)
	// binary searches that trim an intersection's longer list.
	examined int
}

// member reports whether the cell id belongs to run member b of the
// running ThroughRegions node: a bitmap test for snapshot-covered ids, a
// name-resolved closure probe for ids interned after the snapshot. The
// bound is the snapshot length, not the bitmap capacity — ids landing in
// the last word's padding bits must take the fallback, not read an
// always-zero bit.
func (ctx *execCtx) member(cell int32, b int) bool {
	if cell < ctx.running.maskLen {
		mask := ctx.running.masks[b]
		return mask[cell/64]&(1<<(uint(cell)%64)) != 0
	}
	rt := ctx.s.Regions()
	if rt == nil {
		return false
	}
	region := ctx.running.regs[b]
	for _, r := range rt.Closure(ctx.s.cells.Symbol(cell)) {
		if r == region {
			return true
		}
	}
	return false
}

// estimate returns a cheap upper bound on the node's matches in the shard,
// used to order conjuncts most-selective-first. Runs under the caller-held
// shard lock.
//
//sitm:locked
func (c *cplan) estimate(sh *shard) int {
	switch c.kind {
	case kEmpty:
		return 0
	case kCell:
		return len(sh.posting(c.id))
	case kRegion:
		return len(sh.regionPosting(c.id))
	case kPair:
		return len(sh.pairPosting(c.id))
	case kMO:
		return len(sh.byMO[c.id])
	case kTime:
		return sh.windowRows(c.fromN, c.toN)
	case kCellDuring:
		return len(sh.posting(c.id))
	case kThrough:
		est := len(sh.seqs)
		for _, id := range c.run {
			if n := len(sh.posting(id)); n < est {
				est = n
			}
		}
		return est
	case kThroughRegions:
		est := len(sh.seqs)
		for _, r := range c.regs {
			if n := len(sh.regionPosting(r)); n < est {
				est = n
			}
		}
		return est
	case kAnd:
		est := len(sh.seqs)
		for _, k := range c.kids {
			if n := k.estimate(sh); n < est {
				est = n
			}
		}
		return est
	case kOr:
		est := 0
		for _, k := range c.kids {
			est += k.estimate(sh)
			if est >= len(sh.seqs) {
				return len(sh.seqs)
			}
		}
		return est
	}
	return len(sh.seqs)
}

// postingBacked reports whether the node is answered by one stored posting
// list, making it an intersection operand rather than a per-slot test.
func (c *cplan) postingBacked() bool {
	switch c.kind {
	case kCell, kRegion, kPair, kMO:
		return true
	}
	return false
}

// postingOf returns the node's posting list (postingBacked nodes only).
// The returned slice is the shard's live list and must not be mutated.
//
//sitm:locked
//sitm:aliases
func (c *cplan) postingOf(sh *shard) []int32 {
	switch c.kind {
	case kCell:
		return sh.posting(c.id)
	case kRegion:
		return sh.regionPosting(c.id)
	case kPair:
		return sh.pairPosting(c.id)
	case kMO:
		return sh.byMO[c.id]
	}
	panic("store: postingOf on non-posting node")
}

// exec materialises the node's matching slots in one shard, ascending.
// The result may alias a live posting list; callers must not mutate it.
// Once a block cannot be read back (ctx.err) the result is void.
//
//sitm:locked
//sitm:aliases
func (c *cplan) exec(ctx *execCtx) []int32 {
	sh := ctx.sh
	switch c.kind {
	case kEmpty:
		return nil
	case kCell, kRegion, kPair, kMO:
		return c.postingOf(sh)
	case kTime, kCellDuring:
		return c.zoneSlots(ctx)
	case kThrough, kThroughRegions:
		return filterSlots(ctx, c, c.intersectPostings(ctx, nil))
	case kAnd:
		order := c.conjunctOrder(sh)
		base := order[0].kid.exec(ctx)
		for _, p := range order[1:] {
			if len(base) == 0 {
				return nil
			}
			switch {
			case p.kid.postingBacked():
				base = intersectSorted(base, p.kid.postingOf(sh), &ctx.examined)
			case p.run:
				base = filterSlots(ctx, p.kid, p.kid.intersectPostings(ctx, base))
			default:
				base = filterSlots(ctx, p.kid, base)
			}
		}
		return base
	case kOr:
		var union []int32
		for _, kid := range c.kids {
			union = append(union, kid.exec(ctx)...)
			if ctx.err != nil {
				return nil
			}
		}
		ctx.examined += len(union)
		slices.Sort(union)
		return dedupSorted(union)
	}
	return nil
}

// pricedKid is one And child with its estimate, computed once per shard
// execution.
type pricedKid struct {
	kid *cplan
	est int
	run bool // a sequence-run child (kThrough, kThroughRegions)
}

// conjunctOrder returns the And node's children in execution order. The
// cheap children (posting lists, zone-priced windows, nested plans) come
// first in ascending-estimate order: the smallest materialises the
// candidate set and the rest narrow it by intersection or per-slot tests.
// The sequence-run children go last, also by estimate: each narrows the
// candidates by its member postings, then run-checks only the survivors.
//
//sitm:locked
func (c *cplan) conjunctOrder(sh *shard) []pricedKid {
	order := make([]pricedKid, len(c.kids))
	for i, kid := range c.kids {
		order[i] = pricedKid{kid, kid.estimate(sh), kid.kind == kThrough || kid.kind == kThroughRegions}
	}
	slices.SortStableFunc(order, func(a, b pricedKid) int {
		if a.run != b.run {
			if a.run {
				return 1
			}
			return -1
		}
		return cmp.Compare(a.est, b.est)
	})
	return order
}

// intersectPostings narrows cand by the posting lists of a sequence-run
// node's members (cell postings for kThrough, region postings for
// kThroughRegions), shortest first; a nil cand starts from the shortest
// posting. The result may alias that posting list.
//
//sitm:locked
//sitm:aliases
func (c *cplan) intersectPostings(ctx *execCtx, cand []int32) []int32 {
	sh := ctx.sh
	var lists [][]int32
	switch c.kind {
	case kThrough:
		for _, id := range c.run {
			lists = append(lists, sh.posting(id))
		}
	case kThroughRegions:
		for _, r := range c.regs {
			lists = append(lists, sh.regionPosting(r))
		}
	}
	sort.SliceStable(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	if cand == nil {
		cand, lists = lists[0], lists[1:]
	}
	for _, l := range lists {
		if len(cand) == 0 {
			return nil
		}
		cand = intersectSorted(cand, l, &ctx.examined)
	}
	return cand
}

// filterSlots keeps the slots passing the node's per-slot test, always
// into a fresh slice (the input may alias a live posting list). It stops
// at the first block read-back failure (ctx.err).
func filterSlots(ctx *execCtx, c *cplan, slots []int32) []int32 {
	ctx.examined += len(slots)
	var out []int32
	for _, slot := range slots {
		if c.test(ctx, slot) {
			out = append(out, slot)
		}
		if ctx.err != nil {
			return nil
		}
	}
	return out
}

// test evaluates the node as a per-slot predicate. Runs under the
// caller-held shard lock.
//
//sitm:locked
func (c *cplan) test(ctx *execCtx, slot int32) bool {
	sh := ctx.sh
	switch c.kind {
	case kEmpty:
		return false
	case kCell:
		return containsSorted(sh.posting(c.id), slot)
	case kRegion:
		return containsSorted(sh.regionPosting(c.id), slot)
	case kPair:
		return containsSorted(sh.anns[slot], c.id)
	case kMO:
		return sh.moIDs[slot] == c.id
	case kTime:
		return sh.spanOverlaps(slot, c)
	case kCellDuring:
		return sh.cellDuring(ctx, slot, c)
	case kThrough:
		ctx.dedup = dedupInto(ctx.dedup[:0], sh.encs[slot])
		return containsRun(ctx.dedup, c.run)
	case kThroughRegions:
		ctx.dedup = dedupInto(ctx.dedup[:0], sh.encs[slot])
		return ctx.regionRun(ctx.dedup, c)
	case kAnd:
		for _, kid := range c.kids {
			if !kid.test(ctx, slot) {
				return false
			}
		}
		return true
	case kOr:
		for _, kid := range c.kids {
			if kid.test(ctx, slot) {
				return true
			}
		}
		return false
	}
	return false
}

// regionRun reports whether the deduplicated cell sequence splits into
// consecutive non-empty blocks matching the node's regions in order. A
// dynamic program over "positions where block b may start": from every
// reachable start the block extends over the maximal prefix of member
// cells, and every cut inside that prefix seeds the next block — O(k·L²)
// worst case over sequences of tens of cells.
func (ctx *execCtx) regionRun(seq []int32, c *cplan) bool {
	L := len(seq)
	if L == 0 {
		return false
	}
	if cap(ctx.reach) < L+1 {
		ctx.reach = make([]bool, L+1)
		ctx.next = make([]bool, L+1)
	}
	reach, next := ctx.reach[:L+1], ctx.next[:L+1]
	for i := 0; i < L; i++ {
		reach[i] = true // the first block may start anywhere
	}
	reach[L] = false
	ctx.running = c
	for b := range c.regs {
		clear(next)
		any := false
		for i := 0; i < L; i++ {
			if !reach[i] || !ctx.member(seq[i], b) {
				continue
			}
			for j := i; j < L && ctx.member(seq[j], b); j++ {
				next[j+1] = true
				any = true
			}
		}
		if !any {
			return false
		}
		reach, next = next, reach
	}
	ctx.reach, ctx.next = reach, next // keep buffers for the next slot
	return true
}

// containsSorted reports whether the ascending list holds v.
//
//sitm:hotpath
func containsSorted(list []int32, v int32) bool {
	_, ok := slices.BinarySearch(list, v)
	return ok
}

// dedupSorted removes duplicates from an ascending slice in place.
//
//sitm:hotpath
func dedupSorted(slots []int32) []int32 {
	if len(slots) < 2 {
		return slots
	}
	out := slots[:1]
	for _, s := range slots[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

// ---- Entry points --------------------------------------------------------

// Select compiles the query and returns the matching trajectories in
// insertion order. The plan executes per shard under the shard's read lock
// (fanning out over the worker pool) and the per-shard matches merge by
// insertion sequence, exactly like the canned query methods built on it.
func (s *Store) Select(q Query) ([]core.Trajectory, error) {
	return s.SelectCtx(context.Background(), q)
}

// SelectMOs compiles the query and returns the distinct moving objects of
// the matching trajectories, sorted.
func (s *Store) SelectMOs(q Query) ([]string, error) {
	return s.SelectMOsCtx(context.Background(), q)
}
