package store

// The two-tier incremental interval index below is test-only: it is the
// index of E7's legacy single-lock engine (e7_bench_test.go), checked by
// incremental_test.go. The store prunes time windows with zone maps.

import (
	"sort"
	"time"
)

// span is one indexed time interval with the payload it refers to (a
// trajectory slot for the store-wide index, likewise for per-cell indexes).
type span struct {
	start, end time.Time
	ref        int
}

// intervalIndex answers "which intervals intersect [from, to]?" in
// O(log n + m) for m matches, and absorbs writes incrementally instead of
// forcing a full rebuild. It is a two-tier structure:
//
//   - base: the bulk of the spans, sorted by start time. A binary search
//     bounds the candidates with start ≤ to, and a segment tree of maximum
//     end times over that ordering prunes every candidate block whose
//     intervals all end before the window opens.
//   - buf: a small sorted merge buffer receiving new spans. Queries consult
//     it with the same binary-search bound; inserts cost O(|buf|) by sorted
//     insertion.
//
// When the buffer outgrows ~2·√|base| it is merged into the base with one
// linear merge of two sorted runs (no re-sort) and the segment tree is
// rebuilt in O(n). Inserts are therefore O(√n) amortized and queries stay
// O(log n + √n + matches) — no query after a write ever pays the seed's
// O(n log n) wholesale rebuild.
type intervalIndex struct {
	base   []span
	maxEnd []time.Time // segment tree over base span ends; 1-based, leaves at [size, size+n)
	size   int         // leaf offset: smallest power of two ≥ len(base)
	buf    []span      // sorted-by-start merge buffer of recent inserts
}

// newIntervalIndex returns an empty incremental index.
func newIntervalIndex() *intervalIndex { return &intervalIndex{} }

// buildIntervalIndex sorts the spans by start (stable on ref for
// deterministic output) and erects the max-end segment tree. Used for bulk
// construction; incremental writers go through insert/insertAll.
func buildIntervalIndex(spans []span) *intervalIndex {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	ix := &intervalIndex{base: spans}
	ix.rebuildTree()
	return ix
}

// rebuildTree erects the max-end segment tree over the (sorted) base.
func (ix *intervalIndex) rebuildTree() {
	n := len(ix.base)
	size := 1
	for size < n {
		size <<= 1
	}
	ix.size = size
	if n == 0 {
		ix.maxEnd = nil
		return
	}
	ix.maxEnd = make([]time.Time, 2*size)
	for i, sp := range ix.base {
		ix.maxEnd[size+i] = sp.end
	}
	for i := size - 1; i >= 1; i-- {
		ix.maxEnd[i] = maxTime(ix.maxEnd[2*i], ix.maxEnd[2*i+1])
	}
}

// len returns the number of indexed spans across both tiers.
func (ix *intervalIndex) len() int { return len(ix.base) + len(ix.buf) }

// insert adds one span by sorted insertion into the merge buffer,
// compacting when the buffer outgrows its bound.
func (ix *intervalIndex) insert(sp span) {
	i := sort.Search(len(ix.buf), func(k int) bool { return ix.buf[k].start.After(sp.start) })
	ix.buf = append(ix.buf, span{})
	copy(ix.buf[i+1:], ix.buf[i:])
	ix.buf[i] = sp
	ix.maybeCompact()
}

// insertAll adds many spans with one buffer re-sort and at most one
// compaction — the amortized path PutBatch rides.
func (ix *intervalIndex) insertAll(sps []span) {
	if len(sps) == 0 {
		return
	}
	ix.buf = append(ix.buf, sps...)
	sort.SliceStable(ix.buf, func(i, j int) bool { return ix.buf[i].start.Before(ix.buf[j].start) })
	ix.maybeCompact()
}

// bufLimit is the merge-buffer bound: ~2·√|base| with a floor that keeps
// tiny indexes from compacting on every insert.
func (ix *intervalIndex) bufLimit() int {
	limit := 32
	if r := 2 * isqrt(len(ix.base)); r > limit {
		limit = r
	}
	return limit
}

func (ix *intervalIndex) maybeCompact() {
	if len(ix.buf) > ix.bufLimit() {
		ix.compact()
	}
}

// compact merges the buffer into the base with one linear merge of two
// sorted runs (stable: base before buffer on equal starts, matching the
// stable bulk sort) and rebuilds the segment tree.
func (ix *intervalIndex) compact() {
	if len(ix.buf) == 0 {
		return
	}
	merged := make([]span, 0, len(ix.base)+len(ix.buf))
	i, j := 0, 0
	for i < len(ix.base) && j < len(ix.buf) {
		if ix.buf[j].start.Before(ix.base[i].start) {
			merged = append(merged, ix.buf[j])
			j++
		} else {
			merged = append(merged, ix.base[i])
			i++
		}
	}
	merged = append(merged, ix.base[i:]...)
	merged = append(merged, ix.buf[j:]...)
	ix.base = merged
	ix.buf = nil
	ix.rebuildTree()
}

// isqrt returns ⌊√n⌋.
func isqrt(n int) int {
	if n <= 0 {
		return 0
	}
	r := int(1)
	for r*r <= n {
		r++
	}
	return r - 1
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// visit calls fn(ref) for every span intersecting [from, to] (inclusive
// bounds: a span touching the window edge matches, like the linear scans
// it replaces). Base hits arrive in start order first, then buffer hits in
// start order; refs may repeat if the same ref was indexed under several
// spans. Callers needing a global order sort or dedup the refs.
func (ix *intervalIndex) visit(from, to time.Time, fn func(ref int)) {
	if n := len(ix.base); n > 0 {
		// Candidates are the prefix with start ≤ to.
		hi := sort.Search(n, func(i int) bool { return ix.base[i].start.After(to) })
		if hi > 0 {
			ix.walk(1, 0, ix.size, hi, from, fn)
		}
	}
	if len(ix.buf) > 0 {
		hi := sort.Search(len(ix.buf), func(i int) bool { return ix.buf[i].start.After(to) })
		for _, sp := range ix.buf[:hi] {
			if !sp.end.Before(from) {
				fn(sp.ref)
			}
		}
	}
}

// walk descends the segment tree node covering leaves [lo, lo+width),
// emitting leaves < hi whose span ends at or after from. Subtrees whose
// maximum end precedes the window are pruned whole, which is what makes
// sparse windows sublinear.
func (ix *intervalIndex) walk(node, lo, width, hi int, from time.Time, fn func(ref int)) {
	if lo >= hi || lo >= len(ix.base) || ix.maxEnd[node].Before(from) {
		return
	}
	if width == 1 {
		fn(ix.base[lo].ref)
		return
	}
	half := width / 2
	ix.walk(2*node, lo, half, hi, from, fn)
	ix.walk(2*node+1, lo+half, half, hi, from, fn)
}
