package store

import (
	"sitm/internal/parallel"
	"sitm/internal/similarity"
	"sitm/internal/symtab"
)

// This file is the storage → analytics handoff. Because the store encodes
// everything at write time — interned cell sequences and sorted distinct
// annotation-pair id sets ride beside every trajectory — a snapshot for
// the similarity/clustering/mining engines is assembled from flat copies
// of the per-shard slice-header columns plus a frozen dictionary view:
// zero re-interning, zero string traffic, allocation count independent of
// dictionary size (guarded by TestCorpusHandoffAllocsIndependentOfDict).

// snapshot copies the encoded columns of every shard (each under its read
// lock) and returns them in insertion order along with the longest-trace
// bound. withAnns selects whether the annotation column rides along (the
// mining handoff has no use for it and skips the copies). The inner
// []int32 slices are shared with the store, which is safe: per-trajectory
// encodings are append-only and never mutated in place.
func (s *Store) snapshot(withAnns bool) (encs, anns [][]int32, maxLen int) {
	type cols struct {
		keys []uint64
		encs [][]int32
		anns [][]int32
		max  int
	}
	per := make([]cols, len(s.shards))
	parallel.ForEach(len(s.shards), func(i int) {
		sh := &s.shards[i]
		c := &per[i]
		sh.mu.RLock()
		c.keys = append([]uint64(nil), sh.seqs...)
		c.encs = append([][]int32(nil), sh.encs...)
		if withAnns {
			c.anns = append([][]int32(nil), sh.anns...)
		}
		c.max = sh.maxLen
		sh.mu.RUnlock()
	})
	total := 0
	for i := range per {
		total += len(per[i].keys)
		if per[i].max > maxLen {
			maxLen = per[i].max
		}
	}
	if total == 0 {
		return nil, nil, maxLen
	}
	keys := make([]uint64, 0, total)
	encs = make([][]int32, 0, total)
	if withAnns {
		anns = make([][]int32, 0, total)
	}
	for i := range per {
		keys = append(keys, per[i].keys...)
		encs = append(encs, per[i].encs...)
		if withAnns {
			anns = append(anns, per[i].anns...)
		}
	}
	pos := seqOrder(keys)
	encs = placeAt(pos, encs)
	if withAnns {
		anns = placeAt(pos, anns)
	}
	return encs, anns, maxLen
}

// Corpus builds a similarity.Corpus over the store's current contents —
// the bulk-analytics snapshot — directly on the store's own dictionary:
// the interned cell sequences and annotation id sets encoded at write time
// are handed over as-is, and the corpus dictionary is a frozen O(1) view
// of the store's cell dict. The returned corpus observes insertion order,
// matching similarity.NewCorpus(s.All()) value-for-value (bit-identical
// matrices, guarded by TestStoreCorpusMatchesNewCorpus). It reads only
// the eager columns, never a segment block, so unlike All it cannot fail
// on a block read.
func (s *Store) Corpus() *similarity.Corpus {
	encs, anns, maxLen := s.snapshot(true)
	return similarity.NewCorpusFromEncoded(s.cells.Freeze(), encs, anns, maxLen)
}

// Sequences returns the store's trajectories as dictionary-encoded
// movement sequences (consecutive same-cell repeats collapsed, exactly
// mining.SequencesOf's shape) plus the frozen dictionary to decode them —
// the mining handoff: feed the pair to mining.PrefixSpanInterned and the
// result is bit-for-bit PrefixSpan(SequencesOf(s.All()), ...) with no
// re-interning. All sequences share one flat backing array. Like Corpus
// it never reads a segment block, so it cannot fail on a block read.
func (s *Store) Sequences() (*symtab.Dict, [][]int32) {
	encs, _, _ := s.snapshot(false)
	total := 0
	for _, e := range encs {
		total += len(e)
	}
	flat := make([]int32, 0, total)
	out := make([][]int32, len(encs))
	for i, e := range encs {
		lo := len(flat)
		for _, id := range e {
			// Collapse repeats within this sequence only (len(flat) == lo
			// marks its start — the previous sequence's tail must not
			// swallow a matching head).
			if len(flat) == lo || flat[len(flat)-1] != id {
				flat = append(flat, id)
			}
		}
		out[i] = flat[lo:len(flat):len(flat)]
	}
	return s.cells.Freeze(), out
}
