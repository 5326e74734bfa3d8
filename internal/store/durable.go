package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"sitm/internal/core"
	"sitm/internal/faultfs"
	"sitm/internal/parallel"
	"sitm/internal/retry"
	"sitm/internal/symtab"
	"sitm/internal/wal"
)

// Durable store (DESIGN.md §3.10): the in-memory sharded engine backed by
// a per-shard write-ahead log plus immutable columnar segments, mirroring
// the in-memory layout — the WAL carries the already-interned row columns
// and dictionary deltas, segments carry the encoded columns and dict pages
// verbatim, so Open replays bytes back into shard columns instead of
// parse-and-re-intern.
//
// Write protocol: a writer holds the checkpoint gate shared, logs any
// dictionary growth to the dict WAL, appends the encoded row to its home
// shard's WAL (sequence assignment and append under one mutex, so each
// shard's WAL is ascending in seq for sequential writers), then inserts
// into the shard exactly like the in-memory path. Append ≠ durable: call
// Sync (or Close) to fsync; a crash loses at most the unsynced tail, never
// the prefix, and never consistency.
//
// Checkpoint protocol: under the gate held exclusive — so no append or
// insert is in flight — capture slice headers over every shard's rows
// since the last committed generation plus the dictionary symbols interned
// since then, rotate every WAL to a fresh generation, and release the
// gate. That tail is then encoded as one new segment per shard and one
// dictionary delta file, committed (temp + rename) off the write path, and
// the MANIFEST rename — which appends the new generation to the ordered
// list of committed ones — is the commit point: rows with seq <
// manifest.next_seq live in segments, everything after replays from the
// WALs. A checkpoint costs O(rows since the previous one), not O(store).
// Failures before the manifest commit leave the old manifest listing the
// old generations while recovery replays both WAL generations — nothing
// is lost, the checkpoint just didn't happen.

// Options tune a durable store opened with Open.
type Options struct {
	// Shards is the shard count for a fresh directory (0 = GOMAXPROCS).
	// An existing directory's shard layout is authoritative: 0 adopts it,
	// a conflicting non-zero value errors.
	Shards int
	// AutoCompactBytes, when > 0, triggers a background checkpoint once
	// the live WAL bytes exceed it. 0 disables background compaction
	// (checkpoint explicitly via Checkpoint).
	AutoCompactBytes int64
	// ReadOnly opens the directory without creating or appending any
	// file: no manifest bootstrap, no WAL creation, no torn-tail
	// truncation — the open leaves the directory byte-identical. The
	// directory must already hold a manifest (i.e. have been written by
	// a read-write open). Put/PutBatch panic with ErrReadOnly;
	// Checkpoint returns ErrReadOnly; Sync and Close are no-ops.
	ReadOnly bool
	// FS is the filesystem the store performs all durability I/O
	// through (nil = the real filesystem). Fault-injection tests pass a
	// faultfs.Injector to fail fsyncs, writes and renames at the
	// syscall boundary.
	FS faultfs.FS
	// BlockCacheBytes bounds the cache of lazily decoded segment
	// blocks (0 = DefaultBlockCacheBytes, negative = no caching).
	// Ignored when BlockCache is set.
	BlockCacheBytes int64
	// BlockCache, when non-nil, is used instead of a private cache —
	// pass one cache to every read-only replica of a serving fleet so
	// they share a single residual-block budget.
	BlockCache *BlockCache
}

// ErrReadOnly reports a write attempted on a store opened with
// Options.ReadOnly. Put and PutBatch panic with an error wrapping it
// (their signatures predate the read-only mode and have no error
// return); Checkpoint returns it.
var ErrReadOnly = errors.New("store: read-only")

const walFrameOverhead = 9 // 8-byte frame header + 1 type byte

// rowLog is one shard's WAL handle. mu serializes sequence assignment and
// append so the shard's WAL stays seq-ascending for sequential writers,
// and guards the handle across checkpoint rotation.
type rowLog struct {
	mu sync.Mutex
	//sitm:guardedby mu
	log *wal.Log
	//sitm:guardedby mu
	buf []byte // row encode scratch
}

// durable is the persistence state hanging off a Store opened with Open.
type durable struct {
	dir  string
	opts Options
	// fs is the filesystem every durability syscall goes through
	// (faultfs.OS outside fault-injection tests).
	fs faultfs.FS
	// readOnly marks a store opened with Options.ReadOnly: no WAL
	// handles exist and every mutating entry point refuses.
	readOnly bool
	// cache holds lazily decoded segment blocks (possibly shared
	// across stores via Options.BlockCache). Immutable after Open.
	cache *BlockCache

	// gate admits writers shared and the checkpoint rotation exclusive:
	// rotation must observe no WAL append or shard insert in flight.
	gate sync.RWMutex

	dictMu sync.Mutex
	//sitm:guardedby dictMu
	dictLog *wal.Log
	//sitm:guardedby dictMu
	dictLogged [3]int // symbols persisted per dict (cells, mos, pairs)
	//sitm:guardedby dictMu
	dictBuf []byte

	rows []rowLog // one per shard, parallel to Store.shards

	// ckptMu serializes Checkpoint/Close against each other.
	ckptMu sync.Mutex
	//sitm:guardedby ckptMu
	gen uint64 // newest committed segment generation (0 = none)
	//sitm:guardedby ckptMu
	gens []uint64 // committed generations the next manifest keeps, oldest first
	//sitm:guardedby ckptMu
	ckptDict [3]int // per dictionary: symbols held by the kept generations' files
	//sitm:guardedby ckptMu
	walGen uint64 // generation of the current WAL files
	//sitm:guardedby ckptMu
	staleWAL []string // replayed WAL files awaiting checkpoint cleanup

	walLive    atomic.Int64 // bytes across live WAL files (compaction trigger)
	compacting atomic.Bool
	closed     atomic.Bool
	wg         sync.WaitGroup

	errMu sync.Mutex
	// err is the first durability failure; once set, the store keeps
	// serving reads and in-memory writes but Sync/Checkpoint/Close
	// report it — the on-disk state is a consistent prefix, not a lie.
	//sitm:guardedby errMu
	err error
}

func (d *durable) fail(err error) {
	if err == nil {
		return
	}
	d.errMu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.errMu.Unlock()
}

func (d *durable) sticky() error {
	d.errMu.Lock()
	err := d.err
	d.errMu.Unlock()
	return err
}

// dictKinds orders the store dictionaries for delta records and pages.
func (s *Store) dictKinds() [3]*symtab.SyncDict {
	return [3]*symtab.SyncDict{s.cells, s.mos, s.pairs}
}

// logDictTail appends a delta record for every dictionary that has grown
// past its persisted length. Called before appending a row, it guarantees
// the row's ids are covered by deltas earlier in the dict WAL — Sync
// syncs the dict WAL first, and recovery replays it first, so a row can
// never outlive the symbols it references.
func (d *durable) logDictTail(s *Store) {
	dicts := s.dictKinds()
	lens := [3]int{dicts[0].Len(), dicts[1].Len(), dicts[2].Len()}
	d.dictMu.Lock()
	for k := range dicts {
		if lens[k] <= d.dictLogged[k] {
			continue
		}
		syms := dicts[k].SymbolsFrom(d.dictLogged[k])
		if len(syms) == 0 {
			continue
		}
		payload := append(d.dictBuf[:0], byte(k))
		payload = binary.AppendUvarint(payload, uint64(d.dictLogged[k]))
		payload = symtab.AppendPage(payload, syms)
		d.dictBuf = payload
		if err := d.dictLog.Append(recDict, payload); err != nil {
			d.fail(err)
		}
		d.dictLogged[k] += len(syms)
		d.walLive.Add(int64(len(payload)) + walFrameOverhead)
	}
	d.dictMu.Unlock()
}

// admit gates a durable write before anything is interned: a read-only
// store panics, and a write holding a time the WAL cannot store (outside
// the int64 nanosecond range) is not applied at all — the whole batch is
// dropped with a sticky error, like a failed append, so no later Sync
// acknowledges it.
func (d *durable) admit(ts []core.Trajectory) bool {
	if d.readOnly {
		panic(fmt.Errorf("store: PutBatch on read-only store %s: %w", d.dir, ErrReadOnly))
	}
	for _, t := range ts {
		if err := checkTrajectoryTimes(t); err != nil {
			d.fail(fmt.Errorf("store: PutBatch not applied: %w", err))
			return false
		}
	}
	return true
}

// putBatchDurable is PutBatch's durable back half: one WAL-append run and
// one shard visit per touched shard.
func (s *Store) putBatchDurable(ts []core.Trajectory, moIDs []int32, encs, anns [][]int32, groups [][]int32) {
	d := s.dur
	d.gate.RLock()
	d.logDictTail(s)
	base := s.nextSeq.Add(uint64(len(ts))) - uint64(len(ts))
	for g, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		rl := &d.rows[g]
		rl.mu.Lock()
		for _, i := range idxs {
			rl.buf = appendRow(rl.buf[:0], base+uint64(i), moIDs[i], encs[i], anns[i], ts[i])
			if err := rl.log.Append(recRow, rl.buf); err != nil {
				d.fail(err)
				break
			}
			d.walLive.Add(int64(len(rl.buf)) + walFrameOverhead)
		}
		rl.mu.Unlock()
		sh := &s.shards[g]
		sh.mu.Lock()
		sh.insertBatch(base, ts, idxs, moIDs, encs, anns, s.trajectoryRegions)
		sh.mu.Unlock()
	}
	d.gate.RUnlock()
	d.maybeCompact(s)
}

// Sync makes every previously completed Put/PutBatch durable: the dict
// WAL is synced before the row WALs, preserving the replay invariant. On
// an in-memory store Sync is a no-op. The first underlying failure is
// sticky and re-reported here.
func (s *Store) Sync() error {
	d := s.dur
	if d == nil || d.readOnly {
		return nil
	}
	d.gate.RLock()
	d.dictMu.Lock()
	dl := d.dictLog
	d.dictMu.Unlock()
	if err := dl.Sync(); err != nil {
		d.fail(err)
	}
	for i := range d.rows {
		rl := &d.rows[i]
		rl.mu.Lock()
		lg := rl.log
		rl.mu.Unlock()
		if err := lg.Sync(); err != nil {
			d.fail(err)
		}
	}
	d.gate.RUnlock()
	return d.sticky()
}

// ckptSnapshot is everything a checkpoint captures under the gate: the
// watermark, the dictionary symbols interned since the last committed
// generation, and per shard column slice headers over the slots added
// since then (safe to read after release — the columns are append-only,
// so later writers either append past the captured length or move to a
// new array).
type ckptSnapshot struct {
	nextSeq uint64
	dict    dictDelta
	shards  []segmentColumns
}

// empty reports a tail with no row and no symbol: nothing to commit.
func (snap *ckptSnapshot) empty() bool {
	for i := range snap.shards {
		if len(snap.shards[i].seqs) > 0 {
			return false
		}
	}
	return snap.dict.empty()
}

// rotate runs under the gate held exclusive: captures the snapshot of
// what follows the committed dictionary lengths dictFrom and each shard's
// block-backed prefix (its live rows), swaps every WAL to the pre-created
// next-generation logs, and closes (flushing and syncing) the old ones. It
// returns the snapshot and the old WAL paths for post-commit deletion.
func (d *durable) rotate(s *Store, dictFrom [3]int, newDict *wal.Log, newRows []*wal.Log) (*ckptSnapshot, []string) {
	snap := &ckptSnapshot{
		nextSeq: s.nextSeq.Load(),
		shards:  make([]segmentColumns, len(s.shards)),
	}
	for k, dict := range s.dictKinds() {
		snap.dict.from[k] = dictFrom[k]
		snap.dict.syms[k] = dict.SymbolsFrom(dictFrom[k])
	}
	oldPaths := make([]string, 0, len(s.shards)+1)
	d.dictMu.Lock()
	oldDict := d.dictLog
	d.dictLog = newDict
	for k := range d.dictLogged {
		d.dictLogged[k] = snap.dict.from[k] + len(snap.dict.syms[k])
	}
	d.dictMu.Unlock()
	if err := oldDict.Close(); err != nil {
		d.fail(err)
	}
	oldPaths = append(oldPaths, oldDict.Path())
	for i := range s.shards {
		sh := &s.shards[i]
		// Every commit adopts its blocks, so the tail is the live rows.
		sh.mu.RLock()
		from := sh.liveBase()
		snap.shards[i] = segmentColumns{
			seqs: sh.seqs[from:], moIDs: sh.moIDs[from:], encs: sh.encs[from:], anns: sh.anns[from:],
			starts: sh.starts[from:], ends: sh.ends[from:], trajs: sh.trajs,
		}
		sh.mu.RUnlock()
		rl := &d.rows[i]
		rl.mu.Lock()
		oldLog := rl.log
		rl.log = newRows[i]
		rl.mu.Unlock()
		if err := oldLog.Close(); err != nil {
			d.fail(err)
		}
		oldPaths = append(oldPaths, oldLog.Path())
	}
	d.walLive.Store(0)
	return snap, oldPaths
}

// Checkpoint commits everything written since the last checkpoint as a
// new generation: one segment per shard holding the rows each shard
// gained, and one dictionary delta file. Rotate-and-capture stops the
// world only for slice-header copies and file swaps; encoding and
// committing happen with writers flowing into the fresh WALs, and cost
// O(rows since the previous checkpoint). On success the replayed-away WAL
// files are deleted; earlier generations stay, listed before the new one.
// A checkpoint with nothing new writes no generation. On commit each shard
// adopts the blocks it wrote (shard.adoptSegment). A failure leaves the
// previous generations authoritative, every row still recoverable from
// the (now two generations of) WAL files, and memory untouched.
// Checkpoint on an in-memory store is a no-op.
func (s *Store) Checkpoint() error {
	d := s.dur
	if d == nil {
		return nil
	}
	if d.readOnly {
		return fmt.Errorf("store: checkpoint on read-only store %s: %w", d.dir, ErrReadOnly)
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if d.closed.Load() {
		return errors.New("store: checkpoint on closed store")
	}
	if err := d.sticky(); err != nil {
		return err
	}

	// Pre-create the next WAL generation before taking the gate, so the
	// stop-the-world window contains no file creation. A creation failure
	// leaves the current generation untouched and is safe to retry.
	nextWAL := d.walGen + 1
	newDict, newRows, err := createWALGen(d.fs, d.dir, nextWAL, len(d.rows))
	if err != nil {
		return retry.MarkTransient(err)
	}
	d.gate.Lock()
	snap, oldWAL := d.rotate(s, d.ckptDict, newDict, newRows)
	d.gate.Unlock()
	d.walGen = nextWAL
	// The rotated-out files stay tracked until a checkpoint commits: on
	// any failure below, recovery (and the next checkpoint's cleanup)
	// still needs them.
	d.staleWAL = append(d.staleWAL, oldWAL...)
	if err := d.sticky(); err != nil {
		return err
	}
	if snap.empty() {
		// Every row and symbol the rotated WALs hold is already in a
		// committed generation.
		removeAll(d.fs, d.staleWAL)
		d.staleWAL = nil
		return nil
	}

	// Encode and commit off the write path. Failures here (temp-file
	// write, fsync, manifest rename) happen before the commit point: the
	// previous generations stay authoritative and every row is still
	// recoverable from the WALs, so these errors are marked transient —
	// callers may simply call Checkpoint again, which rewrites this
	// generation with whatever arrived since.
	gen := d.gen + 1
	if err := commitFile(d.fs, segDictPath(d.dir, gen), encodeDictDelta(&snap.dict)); err != nil {
		return retry.MarkTransient(err)
	}
	segErrs := make([]error, len(snap.shards))
	segBlocks := make([][]blockInfo, len(snap.shards))
	parallel.ForEach(len(snap.shards), func(i int) {
		var data []byte
		data, segBlocks[i] = encodeSegmentV2(&snap.shards[i])
		segErrs[i] = commitFile(d.fs, segPath(d.dir, gen, i), data)
	})
	if err := firstErr(segErrs); err != nil {
		return retry.MarkTransient(err)
	}
	gens := append(slices.Clip(d.gens), gen)
	man := &manifest{Version: manifestVersion, Shards: len(d.rows), Gen: gen, NextSeq: snap.nextSeq, Gens: gens}
	if err := writeManifest(d.fs, d.dir, man); err != nil {
		return retry.MarkTransient(err)
	}

	// Committed: the rotated WAL generations are dead, and the captured
	// rows are served from the blocks just written.
	d.gen, d.gens = gen, gens
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.adoptSegment(len(snap.shards[i].seqs), segBlocks[i], d.cache)
		sh.mu.Unlock()
	}
	for k := range d.ckptDict {
		d.ckptDict[k] = snap.dict.from[k] + len(snap.dict.syms[k])
	}
	removeAll(d.fs, d.staleWAL)
	d.staleWAL = nil
	sweepDir(d.fs, filepath.Join(d.dir, segDirName), gens)
	return nil
}

// createWALGen creates the dict and per-shard row logs of one generation,
// cleaning up on partial failure.
func createWALGen(fsys faultfs.FS, dir string, gen uint64, nShards int) (*wal.Log, []*wal.Log, error) {
	dict, err := wal.CreateFS(fsys, walDictPath(dir, gen))
	if err != nil {
		return nil, nil, err
	}
	rows := make([]*wal.Log, nShards)
	for i := range rows {
		rows[i], err = wal.CreateFS(fsys, walRowPath(dir, gen, i))
		if err != nil {
			dict.Close()
			fsys.Remove(dict.Path())
			for _, lg := range rows[:i] {
				lg.Close()
				fsys.Remove(lg.Path())
			}
			return nil, nil, err
		}
	}
	return dict, rows, nil
}

// removeAll best-effort deletes the given files (cleanup after a commit;
// a leftover file is re-deleted by the next checkpoint).
func removeAll(fsys faultfs.FS, paths []string) {
	for _, p := range paths {
		fsys.Remove(p)
	}
}

// maybeCompact kicks off a background checkpoint once the live WAL bytes
// cross the configured threshold. Single-flight: at most one background
// compaction runs at a time.
func (d *durable) maybeCompact(s *Store) {
	if d.opts.AutoCompactBytes <= 0 || d.closed.Load() {
		return
	}
	if d.walLive.Load() < d.opts.AutoCompactBytes {
		return
	}
	if !d.compacting.CompareAndSwap(false, true) {
		return
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer d.compacting.Store(false)
		if err := s.Checkpoint(); err != nil && !d.closed.Load() {
			d.fail(err)
		}
	}()
}

// Close waits for background compaction, flushes and fsyncs every WAL,
// and closes the files. Close on an in-memory store is a no-op. The
// returned error is the sticky durability error, if any — a nil return
// means everything written is on disk.
func (s *Store) Close() error {
	d := s.dur
	if d == nil {
		return nil
	}
	if d.readOnly {
		// Nothing is open for writing; there is nothing to flush.
		d.closed.Store(true)
		return nil
	}
	if d.closed.Swap(true) {
		return d.sticky()
	}
	d.wg.Wait()
	d.ckptMu.Lock()
	d.dictMu.Lock()
	dl := d.dictLog
	d.dictMu.Unlock()
	if err := dl.Close(); err != nil {
		d.fail(err)
	}
	for i := range d.rows {
		rl := &d.rows[i]
		rl.mu.Lock()
		lg := rl.log
		rl.mu.Unlock()
		if err := lg.Close(); err != nil {
			d.fail(err)
		}
	}
	d.ckptMu.Unlock()
	return d.sticky()
}

// ReadOnly reports whether the store was opened with Options.ReadOnly.
// An in-memory store is writable.
func (s *Store) ReadOnly() bool {
	return s.dur != nil && s.dur.readOnly
}

// DurableStats describes the persistence state of a durable store; ok is
// false for an in-memory store.
type DurableStats struct {
	Dir      string
	Gen      uint64 // newest committed segment generation (0 = none yet)
	Segments int    // committed segments across shards, one per shard per generation
	WALBytes int64  // live WAL bytes awaiting compaction
}

// Durability returns the store's persistence state.
func (s *Store) Durability() (DurableStats, bool) {
	d := s.dur
	if d == nil {
		return DurableStats{}, false
	}
	d.ckptMu.Lock()
	st := DurableStats{Dir: d.dir, Gen: d.gen, Segments: len(d.gens) * len(d.rows), WALBytes: d.walLive.Load()}
	d.ckptMu.Unlock()
	return st, true
}

// loadSegments reads one shard's listed segments and decodes them, in
// generation order, straight into the shard's columns
// (shard.decodeSegments), their residual rows left lazy behind the block
// cache. Returns one past the highest row seq loaded (0 when none).
func (s *Store) loadSegments(fsys faultfs.FS, dir string, shard int, gens []uint64, cache *BlockCache) (uint64, error) {
	files := make([]segFile, 0, len(gens))
	for _, gen := range gens {
		path := segPath(dir, gen, shard)
		data, err := fsys.ReadFile(path)
		if err != nil {
			return 0, fmt.Errorf("store: %s lists generation %d: %w", manifestName, gen, err)
		}
		files = append(files, segFile{path, data})
	}
	return s.shards[shard].decodeSegments(files,
		s.cells.Len(), s.mos.Len(), s.pairs.Len(), cache)
}

// BlockCacheStats returns the residual-block cache counters of a durable
// store; ok is false for an in-memory store, which holds no lazy blocks.
func (s *Store) BlockCacheStats() (BlockCacheStats, bool) {
	d := s.dur
	if d == nil || d.cache == nil {
		return BlockCacheStats{}, false
	}
	return d.cache.Stats(), true
}

// errStaleRow tags a WAL row whose ids point past the recovered
// dictionaries — the row was appended (and possibly synced) after dict
// deltas that never became durable. Recovery treats it as the start of a
// torn tail for that shard.
var errStaleRow = errors.New("row references unrecovered dictionary symbols")

// walReplay replays one WAL file through fn and returns its intact byte
// count: Open's keeps the log open for appending (truncating a torn tail),
// a read-only open's scans it through wal.ScanFS.
type walReplay func(path string, fn func(typ byte, payload []byte) error) (int64, error)

// recovered is what recoverDir rebuilt from a directory.
type recovered struct {
	s         *Store
	cache     *BlockCache
	dictFiles []walFile
	rowFiles  [][]walFile
	walBytes  int64
	// What the next checkpoint keeps: the committed generations and the
	// symbols per dictionary they hold.
	gens     []uint64
	ckptDict [3]int
}

// recoverDir is the one recovery pipeline of writable and read-only opens:
// (1) the committed generations' dictionary files in order, (2) the
// dict-WAL deltas of every WAL generation in order, (3) each shard's
// committed segments in generation order, appended into one block-backed
// prefix, then (4) each shard's row-WAL tail, skipping rows below the
// manifest watermark (they live in the segments). Torn WAL tails end
// replay silently (the crash contract); corruption inside intact frames or
// committed files is a hard error, never a silent partial load, and so is
// a file the manifest lists that is missing.
func recoverDir(fsys faultfs.FS, dir string, man *manifest, opts Options, replay walReplay) (*recovered, error) {
	nShards := man.Shards
	s := NewSharded(nShards)
	gens := man.generations()
	rec := &recovered{s: s, gens: gens}

	// 1. Dictionaries: each generation's file continues the previous one;
	// the concatenation is each dictionary's committed image.
	var syms [3][]string
	for _, gen := range gens {
		path := segDictPath(dir, gen)
		data, err := fsys.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("store: %s lists generation %d: %w", manifestName, gen, err)
		}
		dd, err := decodeDictFile(data, path)
		if err != nil {
			return nil, err
		}
		for k := range syms {
			if dd.from[k] != len(syms[k]) {
				return nil, fmt.Errorf("store: %s: dictionary %d continues at id %d, want %d", path, k, dd.from[k], len(syms[k]))
			}
			syms[k] = append(syms[k], dd.syms[k]...)
		}
	}
	for k, dict := range []**symtab.SyncDict{&s.cells, &s.mos, &s.pairs} {
		var err error
		if *dict, err = symtab.NewSyncDictFromSymbols(syms[k]); err != nil {
			return nil, err
		}
		rec.ckptDict[k] = len(syms[k])
	}

	// 2. Dict-WAL deltas (before the segments' row decode would not matter
	// — segments validate against the committed files alone — but rows
	// replayed later may reference delta symbols, so deltas apply first).
	dicts := s.dictKinds()
	var err error
	rec.dictFiles, rec.rowFiles, err = listWALFiles(fsys, dir, nShards)
	if err != nil {
		return nil, err
	}
	for _, wf := range rec.dictFiles {
		n, err := replay(wf.path, func(typ byte, payload []byte) error {
			if typ != recDict {
				return fmt.Errorf("record type %d in dict wal", typ)
			}
			return applyDictDelta(dicts, payload)
		})
		if err != nil {
			return nil, err
		}
		rec.walBytes += n
	}

	// 3. Segments, shards in parallel: each shard's generations append
	// their eager columns as one block-backed prefix and leave residuals
	// lazy behind the block cache.
	rec.cache = opts.BlockCache
	if rec.cache == nil {
		rec.cache = NewBlockCache(opts.BlockCacheBytes)
	}
	maxSeqs := make([]uint64, nShards)
	errs := make([]error, nShards)
	parallel.ForEach(nShards, func(i int) {
		maxSeqs[i], errs[i] = s.loadSegments(fsys, dir, i, gens, rec.cache)
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}

	// 4. Row-WAL tails per shard (generation order), skipping checkpointed
	// rows.
	replayBytes := make([]int64, nShards)
	parallel.ForEach(nShards, func(i int) {
		var rows []durableRow
		for _, wf := range rec.rowFiles[i] {
			n, err := replay(wf.path, func(typ byte, payload []byte) error {
				if typ != recRow {
					return fmt.Errorf("record type %d in row wal", typ)
				}
				row, err := decodeRow(payload,
					s.cells.Len(), s.mos.Len(), s.pairs.Len(),
					s.cells.Symbol, s.mos.Symbol)
				if err != nil {
					if errors.Is(err, errStaleRow) {
						return wal.ErrStopReplay
					}
					return err
				}
				if row.seq < man.NextSeq {
					return nil // already in the segments
				}
				rows = append(rows, row)
				return nil
			})
			if err != nil {
				errs[i] = err
				return
			}
			replayBytes[i] += n
		}
		for r := range rows {
			maxSeqs[i] = max(maxSeqs[i], rows[r].seq+1)
		}
		s.shards[i].insertRecovered(rows)
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	nextSeq := man.NextSeq
	for i := range maxSeqs {
		rec.walBytes += replayBytes[i]
		nextSeq = max(nextSeq, maxSeqs[i])
	}
	s.nextSeq.Store(nextSeq)
	return rec, nil
}

// Open opens (creating if needed) a durable store rooted at dir and
// recovers it (recoverDir) with every WAL file opened for appending, so
// torn tails are truncated. The newest WAL generation stays open for
// writes; older ones are deleted by the next checkpoint. A writable open
// also deletes what a crash or a failed checkpoint left behind: temp files
// and files of generations the manifest does not list.
func Open(dir string, opts Options) (*Store, error) {
	fsys := faultfs.Or(opts.FS)
	if opts.ReadOnly {
		return openReadOnly(fsys, dir, opts)
	}
	if err := fsys.MkdirAll(filepath.Join(dir, walDirName), 0o755); err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll(filepath.Join(dir, segDirName), 0o755); err != nil {
		return nil, err
	}
	man, err := readManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	nShards := opts.Shards
	if man != nil {
		if nShards != 0 && nShards != man.Shards {
			return nil, fmt.Errorf("store: directory %s has %d shards; Options.Shards is %d (use 0 to adopt)", dir, man.Shards, nShards)
		}
	} else {
		if nShards <= 0 {
			nShards = runtime.GOMAXPROCS(0)
		}
		man = &manifest{Version: manifestVersion, Shards: nShards}
		if err := writeManifest(fsys, dir, man); err != nil {
			return nil, err
		}
	}
	nShards = man.Shards

	var logsMu sync.Mutex
	logs := map[string]*wal.Log{} // every log left open, for cleanup on error
	closeLogs := func() {
		for _, lg := range logs {
			lg.Close()
		}
	}
	rec, err := recoverDir(fsys, dir, man, opts, func(path string, fn func(byte, []byte) error) (int64, error) {
		lg, err := wal.OpenFS(fsys, path, fn)
		if err != nil {
			return 0, err
		}
		logsMu.Lock()
		logs[path] = lg
		logsMu.Unlock()
		return lg.Size(), nil
	})
	if err != nil {
		closeLogs()
		return nil, err
	}

	// Current WAL generation: append to the newest existing files, creating
	// any that are missing at the highest generation seen; the older files
	// are only read again if this open's first checkpoint fails.
	var stale []string
	walGen := uint64(1)
	newest := func(files []walFile) *wal.Log {
		if len(files) == 0 {
			return nil
		}
		for _, wf := range files[:len(files)-1] {
			stale = append(stale, wf.path)
			logs[wf.path].Close()
			delete(logs, wf.path)
		}
		walGen = max(walGen, files[len(files)-1].gen)
		return logs[files[len(files)-1].path]
	}
	dictLog := newest(rec.dictFiles)
	rowLogs := make([]*wal.Log, nShards)
	for i := range rowLogs {
		rowLogs[i] = newest(rec.rowFiles[i])
	}
	if dictLog == nil {
		if dictLog, err = wal.CreateFS(fsys, walDictPath(dir, walGen)); err != nil {
			closeLogs()
			return nil, err
		}
		logs[dictLog.Path()] = dictLog
	}
	for i := range rowLogs {
		if rowLogs[i] == nil {
			if rowLogs[i], err = wal.CreateFS(fsys, walRowPath(dir, walGen, i)); err != nil {
				closeLogs()
				return nil, err
			}
			logs[rowLogs[i].Path()] = rowLogs[i]
		}
	}
	sweepDir(fsys, dir, nil)
	sweepDir(fsys, filepath.Join(dir, segDirName), man.generations())

	s := rec.s
	d := &durable{
		dir:      dir,
		opts:     opts,
		fs:       fsys,
		cache:    rec.cache,
		dictLog:  dictLog,
		rows:     make([]rowLog, nShards),
		gen:      man.Gen,
		gens:     rec.gens,
		ckptDict: rec.ckptDict,
		walGen:   walGen,
		staleWAL: stale,
		dictLogged: [3]int{
			s.cells.Len(), s.mos.Len(), s.pairs.Len(),
		},
	}
	for i := range d.rows {
		d.rows[i] = rowLog{log: rowLogs[i]}
	}
	d.walLive.Store(rec.walBytes)
	s.dur = d
	return s, nil
}

// openReadOnly is Open's read-only half: the same recovery pipeline, but
// through wal.ScanFS, which neither opens files for writing nor truncates
// torn tails, and with no manifest bootstrap, WAL creation or leftover
// sweep. The loaded state is exactly what a read-write open would
// recover; the directory is left byte-identical.
func openReadOnly(fsys faultfs.FS, dir string, opts Options) (*Store, error) {
	man, err := readStoreManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	if opts.Shards != 0 && opts.Shards != man.Shards {
		return nil, fmt.Errorf("store: directory %s has %d shards; Options.Shards is %d (use 0 to adopt)", dir, man.Shards, opts.Shards)
	}
	rec, err := recoverDir(fsys, dir, man, opts, func(path string, fn func(byte, []byte) error) (int64, error) {
		return wal.ScanFS(fsys, path, fn)
	})
	if err != nil {
		return nil, err
	}
	d := &durable{
		dir:      dir,
		opts:     opts,
		fs:       fsys,
		cache:    rec.cache,
		readOnly: true,
		rows:     make([]rowLog, man.Shards),
		gen:      man.Gen,
		gens:     rec.gens,
	}
	d.walLive.Store(rec.walBytes)
	rec.s.dur = d
	return rec.s, nil
}

// firstErr returns the first non-nil error in shard order: shards tend to
// fail alike, and one report says what the rest would repeat.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// applyDictDelta replays one dict-delta record: kind byte, start id,
// symbol page. Idempotent via the start id (AppendSymbols verifies and
// skips already-known symbols).
func applyDictDelta(dicts [3]*symtab.SyncDict, payload []byte) error {
	if len(payload) < 1 {
		return errors.New("empty dict delta")
	}
	kind := payload[0]
	if int(kind) >= len(dicts) {
		return fmt.Errorf("dict delta kind %d", kind)
	}
	start, w := binary.Uvarint(payload[1:])
	if w <= 0 {
		return errors.New("truncated dict delta")
	}
	syms, rest, err := symtab.DecodePage(payload[1+w:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("dict delta: %d trailing bytes", len(rest))
	}
	return dicts[kind].AppendSymbols(int(start), syms)
}
