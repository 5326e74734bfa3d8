// Package store provides the trajectory data-management substrate implied
// by the paper's data-engineering framing: an in-memory semantic trajectory
// store built as a sharded, dictionary-encoded engine. The store owns
// symbol dictionaries (internal/symtab) for cell names, moving-object ids
// and annotation pairs, and interns them once at write time; trajectories
// hash by moving object across N shards (default GOMAXPROCS), each shard
// carrying its own lock and posting lists keyed by dense int32 ids instead
// of strings. Sequence checks are integer compares, posting lookup is
// slice indexing, and writers to different shards never contend. Every
// write goes through PutBatch (Put is PutBatch of one), and every stored
// row, live or loaded from a checkpointed segment, is indexed by the same
// per-slot routine.
//
// Read queries fan out across the shards (internal/parallel) and merge by
// a global insertion sequence, so All, ByMO, Overlapping and
// ThroughSequence observe the exact insertion order a single-lock store
// would have produced. Temporal windows are pruned by zone maps — one per
// segBlockRows consecutive rows, holding the rows' span extents and a
// cell bloom filter — with one loop for rows loaded lazily from
// checkpointed segment blocks and rows inserted since (see block.go). A
// write folds its row into the newest zone in O(trace length); nothing is
// ever re-sorted or rebuilt.
//
// On top of the zone maps and postings sits a semantic query planner
// (query.go): a composable AST — Cell, Region, TimeOverlap, ByMO,
// HasAnnotation, Through, ThroughRegions, CellDuring, And, Or — compiled
// per query into interned posting-list and bitmap algebra with
// selectivity-ordered execution. Attaching a compiled indoor hierarchy
// (AttachRegions, see regions.go) makes every hierarchy cell a
// first-class region: the shards maintain per-region posting lists at
// write time, so "who passed through Wing Denon during lunch" is a
// posting intersection, not an expand-to-leaf loop. Overlapping,
// InCellDuring and ThroughSequence are canned plans on this engine.
//
// Because encoding happens at write time, the store can hand its contents
// to the analytics layer with zero re-encoding: Corpus() builds a
// similarity.Corpus and Sequences() builds mining input directly on frozen
// snapshots of the store's own dictionaries (see corpus.go). The package
// also offers JSON/CSV round-trips and a streaming CSV detection reader
// for feed ingestion.
package store

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"sitm/internal/core"
	"sitm/internal/parallel"
	"sitm/internal/symtab"
)

// Store is a concurrency-safe in-memory trajectory store. The zero value is
// not usable; call New or NewSharded.
type Store struct {
	// nextSeq issues the global insertion sequence every stored trajectory
	// is stamped with; cross-shard query results merge by it, so the
	// observable order is insertion order regardless of sharding.
	nextSeq atomic.Uint64

	// The store-owned dictionaries: symbols are interned exactly once, at
	// write time. Query paths only Lookup (probing an unknown cell or MO
	// never grows a dictionary), so dictionary sizes equal the distinct
	// symbol counts of the stored data.
	cells *symtab.SyncDict // cell names → dense int32 ids
	mos   *symtab.SyncDict // moving-object ids → dense int32 ids
	pairs *symtab.SyncDict // annotation "key\x00value" pairs → dense ids

	// The attached hierarchy (AttachRegions) plus its dictionary-bound
	// closure cache, feeding the per-shard region postings and the query
	// planner (see regions.go, query.go).
	regions regionState

	shards []shard

	// dur is the persistence state of a store opened with Open; nil for
	// the in-memory constructors. Set once before the store is shared.
	dur *durable

	// noPrune disables zone-map pruning in the plan executor: every zone,
	// checkpointed or live, falls back to per-slot tests (exact
	// posting-list candidates are still used — they are not a heuristic).
	// A test knob for the prune-equivalence oracle; set before the store
	// is shared.
	noPrune bool
}

// New returns an empty store with the default shard count (GOMAXPROCS).
func New() *Store { return NewSharded(0) }

// NewSharded returns an empty store with the given shard count (0 or
// negative selects GOMAXPROCS). One shard reproduces the single-lock
// engine; every shard count is observably equivalent (the property tests
// enforce it) — more shards buy write concurrency.
func NewSharded(n int) *Store {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &Store{
		cells:  symtab.NewSyncDict(),
		mos:    symtab.NewSyncDict(),
		pairs:  symtab.NewSyncDict(),
		shards: make([]shard, n),
	}
	for i := range s.shards {
		s.shards[i].init()
	}
	return s
}

// ErrNotFound is returned for queries with no result.
var ErrNotFound = errors.New("store: not found")

// shardIndex picks the home shard of a moving object (FNV-1a over the raw
// id): all trajectories of one MO land in one shard, so per-MO order is a
// per-shard concern and MO-distinct queries need no cross-shard dedup.
func (s *Store) shardIndex(mo string) int {
	h := uint32(2166136261)
	for i := 0; i < len(mo); i++ {
		h ^= uint32(mo[i])
		h *= 16777619
	}
	return int(h % uint32(len(s.shards)))
}

func (s *Store) shardOf(mo string) *shard { return &s.shards[s.shardIndex(mo)] }

// encodeAnn interns the trajectory's annotation pairs into the store's
// pair dictionary as a sorted distinct id set — the exact encoding
// similarity.NewCorpus computes, precomputed at write time so the corpus
// handoff never touches the annotations again.
func (s *Store) encodeAnn(ann core.Annotations) []int32 {
	var ids []int32
	ann.ForEachPair(func(k, v string) {
		ids = append(ids, s.pairs.Intern(k+"\x00"+v))
	})
	return symtab.SortDistinct(ids)
}

// Put inserts one trajectory: PutBatch of one.
func (s *Store) Put(t core.Trajectory) { s.PutBatch([]core.Trajectory{t}) }

// PutBatch inserts trajectories — the store's one write path. Symbols are
// interned once, outside any shard lock; one contiguous block of insertion
// sequences is reserved, so the batch is observed in argument order; then
// every touched shard is visited once, under its own lock, where postings
// and the newest zone map grow in O(trace length) per trajectory and
// disjoint moving objects never contend. A durable store logs the batch
// to its WALs first, and does not apply a batch holding a time outside
// the int64 nanosecond range its WAL stores — the whole batch is dropped
// and the rejection is reported by Sync. A durable store keeps each row in
// the form its WAL and blocks decode to (canonicalRows: times in UTC,
// empty annotation value lists nil), so a row reads the same live, after
// a checkpoint and after a reopen.
func (s *Store) PutBatch(ts []core.Trajectory) {
	if len(ts) == 0 {
		return
	}
	if s.dur != nil {
		if !s.dur.admit(ts) {
			return
		}
		ts = canonicalRows(ts)
	}
	encs := make([][]int32, len(ts))
	anns := make([][]int32, len(ts))
	moIDs := make([]int32, len(ts))
	groups := make([][]int32, len(s.shards)) // per-shard indexes into ts
	for i, t := range ts {
		encs[i] = s.cells.EncodeTrace(t.Trace)
		moIDs[i] = s.mos.Intern(t.MO)
		anns[i] = s.encodeAnn(t.Ann)
		g := s.shardIndex(t.MO)
		groups[g] = append(groups[g], int32(i))
	}
	if s.dur != nil {
		s.putBatchDurable(ts, moIDs, encs, anns, groups)
		return
	}
	base := s.nextSeq.Add(uint64(len(ts))) - uint64(len(ts))
	for g, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		sh := &s.shards[g]
		sh.mu.Lock()
		sh.insertBatch(base, ts, idxs, moIDs, encs, anns, s.trajectoryRegions)
		sh.mu.Unlock()
	}
}

// canonicalRows returns ts in the form the durable codecs decode rows
// to: every interval time in UTC and every empty annotation value list
// nil. That is ts itself when every row already is (as CSV "…Z" input
// is), else a copy in which only the rows needing it get a converted copy
// of their trace and maps. The caller's trajectories are never changed.
func canonicalRows(ts []core.Trajectory) []core.Trajectory {
	var out []core.Trajectory
	for i := range ts {
		t := &ts[i]
		if canonicalTrace(t.Trace) && canonicalAnn(t.Ann) {
			continue
		}
		if out == nil {
			out = slices.Clone(ts)
		}
		tr := slices.Clone(t.Trace)
		for j := range tr {
			p := &tr[j]
			p.Start, p.End = p.Start.UTC(), p.End.UTC()
			p.Ann, p.TransitionAnn = canonicalCopy(p.Ann), canonicalCopy(p.TransitionAnn)
		}
		out[i].Trace, out[i].Ann = tr, canonicalCopy(t.Ann)
	}
	if out == nil {
		return ts
	}
	return out
}

// canonicalTrace reports whether every interval of tr is in decoded form.
func canonicalTrace(tr core.Trace) bool {
	for i := range tr {
		p := &tr[i]
		if p.Start.Location() != time.UTC || p.End.Location() != time.UTC || !canonicalAnn(p.Ann) || !canonicalAnn(p.TransitionAnn) {
			return false
		}
	}
	return true
}

// canonicalAnn reports whether a holds no empty non-nil value list.
func canonicalAnn(a core.Annotations) bool {
	for _, vs := range a {
		if vs != nil && len(vs) == 0 {
			return false
		}
	}
	return true
}

// canonicalCopy returns a, or a copy of it with its empty value lists
// nil.
func canonicalCopy(a core.Annotations) core.Annotations {
	if canonicalAnn(a) {
		return a
	}
	out := make(core.Annotations, len(a))
	for k, vs := range a {
		if len(vs) == 0 {
			vs = nil
		}
		out[k] = vs
	}
	return out
}

// PutAll inserts many trajectories (an alias of PutBatch, kept for the
// bulk-load call sites).
func (s *Store) PutAll(ts []core.Trajectory) { s.PutBatch(ts) }

// Len returns the number of stored trajectories.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.seqs)
		sh.mu.RUnlock()
	}
	return n
}

// shardRows is one shard's contribution to a cross-shard query: the
// matching rows and their insertion sequences, in tandem.
type shardRows struct {
	keys []uint64
	refs []rowRef
}

// seqOrder returns the insertion-order output position of every row, or
// nil when the rows are already in order. Insertion sequences are unique
// and near-dense (every value the counter issued is stored exactly once; a
// snapshot taken mid-write misses at most the few in-flight ones), so
// instead of a comparison sort the positions come from a bitmap rank: two
// popcount passes, O(rows), no compares — cheap enough that every query
// and every corpus snapshot affords a fully ordered view.
//
//sitm:hotpath
func seqOrder(keys []uint64) []int {
	if len(keys) < 2 {
		return nil
	}
	sorted := true
	minSeq, maxSeq := keys[0], keys[0]
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		if k < keys[i-1] {
			sorted = false
		}
		if k < minSeq {
			minSeq = k
		}
		if k > maxSeq {
			maxSeq = k
		}
	}
	if sorted {
		return nil
	}
	width := maxSeq - minSeq + 1
	if width > uint64(8*len(keys))+1024 {
		// Defensive fallback for a sparse key range (cannot arise from the
		// store's dense sequence counter, but placement must not assume).
		idx := make([]int, len(keys))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		pos := make([]int, len(keys))
		for p, i := range idx {
			pos[i] = p
		}
		return pos
	}
	words := make([]uint64, (width+63)>>6)
	for _, k := range keys {
		words[(k-minSeq)>>6] |= 1 << ((k - minSeq) & 63)
	}
	rank := make([]int, len(words)+1)
	for i, w := range words {
		rank[i+1] = rank[i] + bits.OnesCount64(w)
	}
	pos := make([]int, len(keys))
	for i, k := range keys {
		off := k - minSeq
		w := off >> 6
		pos[i] = rank[w] + bits.OnesCount64(words[w]&(1<<(off&63)-1))
	}
	return pos
}

// placeAt applies a seqOrder placement (nil = already ordered).
func placeAt[T any](pos []int, vals []T) []T {
	if pos == nil {
		return vals
	}
	out := make([]T, len(vals))
	for i, v := range vals {
		out[pos[i]] = v
	}
	return out
}

// placeBySeq reorders vals into insertion order per their keys.
func placeBySeq[T any](keys []uint64, vals []T) []T {
	return placeAt(seqOrder(keys), vals)
}

// gather fans collect out across the shards (each invocation runs under
// that shard's read lock) and merges the row references into insertion
// order — the one merge-by-seq fan-out. Shards stop being scheduled once
// ctx is done, and the error is then ctx.Err().
func (s *Store) gather(ctx context.Context, collect func(sh *shard, out *shardRows)) ([]rowRef, error) {
	per := make([]shardRows, len(s.shards))
	err := parallel.ForEachCtx(ctx, len(s.shards), func(i int) {
		sh := &s.shards[i]
		sh.mu.RLock()
		collect(sh, &per[i])
		sh.mu.RUnlock()
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for i := range per {
		total += len(per[i].refs)
	}
	if total == 0 {
		return nil, nil
	}
	keys := make([]uint64, 0, total)
	refs := make([]rowRef, 0, total)
	for i := range per {
		keys = append(keys, per[i].keys...)
		refs = append(refs, per[i].refs...)
	}
	return placeBySeq(keys, refs), nil
}

// All returns all trajectories in insertion order.
func (s *Store) All() []core.Trajectory {
	refs, _ := s.gather(context.Background(), func(sh *shard, out *shardRows) { //sitm:locked
		sh.addAll(out)
	})
	return s.materialize(refs)
}

// ByMO returns the trajectories of one moving object in insertion order.
// An MO lives entirely in its home shard, so this is a single-shard read.
func (s *Store) ByMO(mo string) []core.Trajectory {
	id, ok := s.mos.Lookup(mo)
	if !ok {
		return nil
	}
	sh := s.shardOf(mo)
	var out shardRows
	sh.mu.RLock()
	sh.addRows(&out, sh.byMO[id])
	sh.mu.RUnlock()
	return s.materialize(placeBySeq(out.keys, out.refs))
}

// MOs returns the distinct moving-object ids, sorted.
func (s *Store) MOs() []string {
	var ids []int32
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.byMO {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	// One O(1) frozen snapshot instead of a lock acquisition per Symbol.
	snap := s.mos.Freeze()
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, snap.Symbol(id))
	}
	sort.Strings(out)
	return out
}

// ThroughCell returns the trajectories that visit the cell at least once —
// the canned Cell plan (compile of a known cell never errors).
func (s *Store) ThroughCell(cell string) []core.Trajectory {
	out, _ := s.Select(Cell(cell))
	return out
}

// InCellDuring returns the MOs present in the cell at any point during
// [from, to] (inclusive bounds, presence intervals intersecting the
// window), sorted — the canned CellDuring plan: each shard walks the
// cell's posting list zone by zone, skipping zones whose bloom filter
// lacks the cell or whose extents miss the window, and checks a
// candidate's span before its presence intervals; MOs never span shards,
// so the per-shard distinct sets union without dedup.
func (s *Store) InCellDuring(cell string, from, to time.Time) []string {
	out, _ := s.SelectMOs(CellDuring(cell, from, to))
	return out
}

// Overlapping returns the trajectories whose time span intersects
// [from, to], in insertion order — the canned TimeOverlap plan, answered
// by each shard's zone maps (current on every completed Put; served under
// shared read locks): zones the window misses are skipped, zones it
// covers are taken whole, and the rest are tested row by row. The window
// may lie in any year.
func (s *Store) Overlapping(from, to time.Time) []core.Trajectory {
	out, _ := s.Select(TimeOverlap(from, to))
	return out
}

// ThroughSequence returns trajectories whose (deduplicated) cell sequence
// contains the given cells consecutively in order — the canned Through
// plan: the run is interned once (a cell the store has never seen
// compiles to a statically empty plan), each shard intersects its integer
// posting lists and run-checks candidates over the write-time encoded
// traces — integer compares, no strings.
func (s *Store) ThroughSequence(cells ...string) []core.Trajectory {
	if len(cells) == 0 {
		return nil
	}
	out, _ := s.Select(Through(cells...))
	return out
}

// intersectSorted merges two ascending posting lists.
//
//sitm:hotpath
func intersectSorted(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// dedupInto appends seq with consecutive repeats collapsed.
//
//sitm:hotpath
func dedupInto(dst, seq []int32) []int32 {
	for _, id := range seq {
		if len(dst) == 0 || dst[len(dst)-1] != id {
			dst = append(dst, id)
		}
	}
	return dst
}

// containsRun reports whether seq contains run as a consecutive
// subsequence — dense-id integer compares.
//
//sitm:hotpath
func containsRun(seq, run []int32) bool {
	for i := 0; i+len(run) <= len(seq); i++ {
		ok := true
		for j := range run {
			if seq[i+j] != run[j] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// GetByMO returns the trajectories of one moving object, or ErrNotFound if
// the store has never seen it.
func (s *Store) GetByMO(mo string) ([]core.Trajectory, error) {
	out := s.ByMO(mo)
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: mo %q", ErrNotFound, mo)
	}
	return out, nil
}

// GetThroughCell returns the trajectories visiting the cell, or ErrNotFound
// if no stored trajectory ever touched it.
func (s *Store) GetThroughCell(cell string) ([]core.Trajectory, error) {
	out := s.ThroughCell(cell)
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: cell %q", ErrNotFound, cell)
	}
	return out, nil
}

// ---- Serialisation ----------------------------------------------------

// jsonInterval mirrors core.PresenceInterval for encoding.
type jsonInterval struct {
	Transition string           `json:"transition,omitempty"`
	Cell       string           `json:"cell"`
	Start      time.Time        `json:"start"`
	End        time.Time        `json:"end"`
	Ann        core.Annotations `json:"ann,omitempty"`
}

type jsonTrajectory struct {
	MO    string           `json:"mo"`
	Ann   core.Annotations `json:"ann"`
	Trace []jsonInterval   `json:"trace"`
}

// WriteJSON streams all trajectories as a JSON array (insertion order).
func (s *Store) WriteJSON(w io.Writer) error {
	trajs := s.All()
	out := make([]jsonTrajectory, 0, len(trajs))
	for _, t := range trajs {
		jt := jsonTrajectory{MO: t.MO, Ann: t.Ann}
		for _, p := range t.Trace {
			jt.Trace = append(jt.Trace, jsonInterval{
				Transition: p.Transition, Cell: p.Cell,
				Start: p.Start, End: p.End, Ann: p.Ann,
			})
		}
		out = append(out, jt)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON loads trajectories previously written by WriteJSON into the
// store (appending). The whole load goes through PutBatch: one lock
// acquisition per touched shard, matching the streaming write path
// instead of paying per-trajectory locking.
//
// The load is all-or-nothing: every trajectory is validated before the
// first insert — including that every time lies inside the int64
// nanosecond range the durable formats store — so a decode or validation
// error leaves the store untouched. The input must be exactly one JSON value — trailing
// non-whitespace data (a torn write, a concatenated pair of store files)
// is rejected rather than silently ignored. A JSON null is a valid empty
// store (Go's encoder writes nil slices as null) and loads nothing.
func (s *Store) ReadJSON(r io.Reader) error {
	var in []jsonTrajectory
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return fmt.Errorf("store: decode: %w", err)
	}
	// A second token must not exist: Decode stops at the end of the first
	// value and would silently ignore whatever follows.
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("unexpected data after store document")
		}
		return fmt.Errorf("store: decode: trailing data: %w", err)
	}
	ts := make([]core.Trajectory, 0, len(in))
	for i, jt := range in {
		var trace core.Trace
		for _, p := range jt.Trace {
			trace = append(trace, core.PresenceInterval{
				Transition: p.Transition, Cell: p.Cell,
				Start: p.Start, End: p.End, Ann: p.Ann,
			})
		}
		t, err := core.NewTrajectory(jt.MO, trace, jt.Ann)
		if err != nil {
			return fmt.Errorf("store: trajectory %q: %w", jt.MO, err)
		}
		if err := checkTrajectoryTimes(t); err != nil {
			return fmt.Errorf("store: trajectory %d: %w", i, err)
		}
		ts = append(ts, t)
	}
	s.PutBatch(ts)
	return nil
}

// WriteDetectionsCSV writes raw detections in the dataset's natural shape:
// mo,cell,start,end (RFC 3339).
func WriteDetectionsCSV(w io.Writer, dets []core.Detection) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"mo", "cell", "start", "end"}); err != nil {
		return err
	}
	for _, d := range dets {
		if err := cw.Write([]string{
			d.MO, d.Cell,
			d.Start.Format(time.RFC3339Nano),
			d.End.Format(time.RFC3339Nano),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// detectionsHeader is the required first row of the detections CSV format.
var detectionsHeader = []string{"mo", "cell", "start", "end"}

// StreamDetectionsCSV reads the format written by WriteDetectionsCSV one
// row at a time, invoking fn for each detection as soon as its row parses —
// the ingestion path for live feeds and files too large to slurp. The first
// row must be the mo,cell,start,end header; a headerless file is rejected
// rather than silently dropping what would have been its first detection.
// A time outside the int64 nanosecond range (before 1677-09-21 or after
// 2262-04-11) fails its row: the durable formats could not store it.
// A non-nil error from fn aborts the stream and is returned verbatim.
func StreamDetectionsCSV(r io.Reader, fn func(core.Detection) error) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err == io.EOF {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: csv: %w", err)
	}
	if len(header) != len(detectionsHeader) {
		return fmt.Errorf("store: csv: header has %d fields, want %v", len(header), detectionsHeader)
	}
	for i, want := range detectionsHeader {
		if header[i] != want {
			return fmt.Errorf("store: csv: header %v, want %v (headerless file?)", header, detectionsHeader)
		}
	}
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("store: csv: %w", err)
		}
		if len(row) != 4 {
			return fmt.Errorf("store: csv row %d: %d fields", line, len(row))
		}
		start, err := time.Parse(time.RFC3339Nano, row[2])
		if err != nil {
			return fmt.Errorf("store: csv row %d start: %w", line, err)
		}
		end, err := time.Parse(time.RFC3339Nano, row[3])
		if err != nil {
			return fmt.Errorf("store: csv row %d end: %w", line, err)
		}
		if err := checkTimeRange(start, end); err != nil {
			return fmt.Errorf("store: csv row %d: %w", line, err)
		}
		if err := fn(core.Detection{MO: row[0], Cell: row[1], Start: start, End: end}); err != nil {
			return err
		}
	}
}

// ReadDetectionsCSV reads the format written by WriteDetectionsCSV in one
// call, built on the streaming reader.
func ReadDetectionsCSV(r io.Reader) ([]core.Detection, error) {
	var out []core.Detection
	err := StreamDetectionsCSV(r, func(d core.Detection) error {
		out = append(out, d)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Summary is a compact store description for reporting.
type Summary struct {
	Trajectories int
	MOs          int
	Cells        int
	Intervals    int
}

// Summarize returns counts over the store. Distinct-symbol counts come
// straight from the dictionaries (only writes intern, so dictionary sizes
// are exactly the stored alphabet sizes).
func (s *Store) Summarize() Summary {
	sum := Summary{Cells: s.cells.Len()}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		sum.Trajectories += len(sh.seqs)
		sum.MOs += len(sh.byMO)
		sum.Intervals += sh.intervals
		sh.mu.RUnlock()
	}
	return sum
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return "trajectories=" + strconv.Itoa(s.Trajectories) +
		" mos=" + strconv.Itoa(s.MOs) +
		" cells=" + strconv.Itoa(s.Cells) +
		" intervals=" + strconv.Itoa(s.Intervals)
}
