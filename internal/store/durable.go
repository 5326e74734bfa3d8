package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
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
// one write-ahead log plus immutable columnar segments, mirroring the
// in-memory layout — the WAL carries the already-interned row columns and
// dictionary deltas, segments carry the encoded columns and dict pages
// verbatim, so Open replays bytes back into shard columns instead of
// parse-and-re-intern.
//
// Write protocol: a writer holds the checkpoint gate shared and, under the
// log mutex, appends a delta record for any dictionary growth and then its
// rows to the store's one log, so every row follows the deltas of the
// symbols it references in the same ordered file; it then inserts into
// each touched shard exactly like the in-memory path. Append ≠ durable:
// call Sync (or Close) to fsync; a crash loses at most the unsynced tail,
// never the prefix, and never consistency.
//
// Checkpoint protocol: under the gate held exclusive — so no append or
// insert is in flight — capture slice headers over every shard's rows
// since the last committed generation plus the dictionary symbols interned
// since then, swap the log for a fresh generation's, and release the
// gate. That tail is then encoded as one new segment per shard and one
// dictionary delta file, committed (temp + rename) off the write path, and
// the MANIFEST rename — which appends the new generation to the ordered
// list of committed ones — is the commit point: rows with seq <
// manifest.next_seq live in segments, everything after replays from the
// WAL. A checkpoint costs O(rows since the previous one), not O(store).
// Failures before the manifest commit leave the old manifest listing the
// old generations while recovery replays both WAL generations — nothing
// is lost, the checkpoint just didn't happen.

// Options tune a durable store opened with Open.
type Options struct {
	// Shards is the shard count for a fresh directory (0 = GOMAXPROCS).
	// An existing directory's shard layout is authoritative: 0 adopts it,
	// a conflicting non-zero value errors.
	Shards int
	// ReadOnly opens the directory without creating or appending any
	// file: no manifest bootstrap, no WAL creation, no torn-tail
	// truncation — the open leaves the directory byte-identical. The
	// directory must already hold a manifest (i.e. have been written by
	// a read-write open). Put/PutBatch panic with ErrReadOnly;
	// Checkpoint returns ErrReadOnly; Sync and Close are no-ops.
	ReadOnly bool
	// FS is the filesystem the store performs all its file I/O through
	// (nil = the real filesystem): durability writes, and the segment
	// reads of an open and of every block-cache miss. Fault-injection
	// tests pass a faultfs.Injector to fail fsyncs, writes, renames and
	// reads at the syscall boundary.
	FS faultfs.FS
	// BlockCacheBytes bounds the store's cache of lazily decoded
	// segment blocks (0 = DefaultBlockCacheBytes, negative = no
	// caching).
	BlockCacheBytes int64
}

// ErrReadOnly reports a write attempted on a store opened with
// Options.ReadOnly. Put and PutBatch panic with an error wrapping it
// (their signatures predate the read-only mode and have no error
// return); Checkpoint returns it.
var ErrReadOnly = errors.New("store: read-only")

const walFrameOverhead = 9 // 8-byte frame header + 1 type byte

// durable is the persistence state hanging off a Store opened with Open.
type durable struct {
	dir string
	// fs is the filesystem every durability syscall goes through
	// (faultfs.OS outside fault-injection tests).
	fs faultfs.FS
	// readOnly marks a store opened with Options.ReadOnly: no WAL
	// handle exists and every mutating entry point refuses.
	readOnly bool
	// cache holds the store's lazily decoded segment blocks. Immutable
	// after Open.
	cache *blockCache

	// gate admits writers shared and the checkpoint rotation exclusive:
	// rotation must observe no WAL append or shard insert in flight.
	gate sync.RWMutex

	// logMu orders appends to the log: a batch's delta records and rows
	// go in under one hold. It also guards the handle across rotation.
	logMu sync.Mutex
	//sitm:guardedby logMu
	log *wal.Log
	// dictLogged is, per dict (cells, mos, pairs), how many symbols a
	// log record or a committed dictionary file already holds. Only
	// logBatch advances it; rotation leaves it, so a symbol interned
	// before a rotation but logged after it goes into the new generation,
	// ahead of the rows that use it.
	//sitm:guardedby logMu
	dictLogged [3]int
	//sitm:guardedby logMu
	buf []byte // record encode scratch

	// ckptMu serializes Checkpoint/Close against each other.
	ckptMu sync.Mutex
	//sitm:guardedby ckptMu
	gen uint64 // newest committed segment generation (0 = none)
	//sitm:guardedby ckptMu
	gens []uint64 // committed generations the next manifest keeps, oldest first
	//sitm:guardedby ckptMu
	ckptDict [3]int // per dictionary: symbols held by the kept generations' files
	//sitm:guardedby ckptMu
	walGen uint64 // generation of the current log
	//sitm:guardedby ckptMu
	staleWAL []string // replayed logs awaiting checkpoint cleanup

	walLive atomic.Int64 // bytes across live logs (DurableStats.WALBytes)
	closed  atomic.Bool

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

// putBatchDurable is PutBatch's durable back half: the batch is logged
// (logBatch), then each touched shard is visited once.
func (s *Store) putBatchDurable(ts []core.Trajectory, moIDs []int32, encs, anns [][]int32, groups [][]int32) {
	d := s.dur
	d.gate.RLock()
	base := s.nextSeq.Add(uint64(len(ts))) - uint64(len(ts))
	d.logBatch(s, base, ts, moIDs, encs, anns)
	for g, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		sh := &s.shards[g]
		sh.mu.Lock()
		sh.insertBatch(base, ts, idxs, moIDs, encs, anns, s.trajectoryRegions)
		sh.mu.Unlock()
	}
	d.gate.RUnlock()
}

// logBatch appends a batch to the log under one hold of logMu: a delta
// record for every dictionary that has grown past its logged length, then
// the batch's rows in argument order. The batch's symbols were interned
// before the call, so every id a row holds is covered by a delta before
// it in the log, or by a committed dictionary file: replay in log order
// meets each symbol before the first row that uses it.
func (d *durable) logBatch(s *Store, base uint64, ts []core.Trajectory, moIDs []int32, encs, anns [][]int32) {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	for k, dict := range s.dictKinds() {
		syms := dict.SymbolsFrom(d.dictLogged[k])
		if len(syms) == 0 {
			continue
		}
		d.buf = append(d.buf[:0], byte(k))
		d.buf = binary.AppendUvarint(d.buf, uint64(d.dictLogged[k]))
		d.buf = symtab.AppendPage(d.buf, syms)
		if !d.appendRecord(recDict) {
			return
		}
		d.dictLogged[k] += len(syms)
	}
	for i := range ts {
		d.buf = appendRow(d.buf[:0], base+uint64(i), moIDs[i], encs[i], anns[i], ts[i])
		if !d.appendRecord(recRow) {
			return
		}
	}
}

// appendRecord appends the encoded record in buf to the log. A failure is
// sticky — the log is wedged, and Sync reports it — so the caller stops.
//
//sitm:locked
func (d *durable) appendRecord(typ byte) bool {
	if err := d.log.Append(typ, d.buf); err != nil {
		d.fail(err)
		return false
	}
	d.walLive.Add(int64(len(d.buf)) + walFrameOverhead)
	return true
}

// Sync makes every previously completed Put/PutBatch durable: one fsync of
// the log. On an in-memory store Sync is a no-op. The first underlying
// failure is sticky and re-reported here.
func (s *Store) Sync() error {
	d := s.dur
	if d == nil || d.readOnly {
		return nil
	}
	d.gate.RLock()
	d.logMu.Lock()
	lg := d.log
	d.logMu.Unlock()
	if err := lg.Sync(); err != nil {
		d.fail(err)
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
// block-backed prefix (its live rows), closes (flushing and syncing) the
// old log and swaps in the pre-created next generation's. It returns the
// snapshot and the old log's path for post-commit deletion.
// The logged-dictionary lengths stay where they are: a writer waiting at
// the gate may hold symbols that are in the snapshot but in no log, and
// it must log them into the new generation, which is all recovery has of
// them if this checkpoint fails.
func (d *durable) rotate(s *Store, dictFrom [3]int, next *wal.Log) (*ckptSnapshot, string, error) {
	snap := &ckptSnapshot{
		nextSeq: s.nextSeq.Load(),
		shards:  make([]segmentColumns, len(s.shards)),
	}
	for k, dict := range s.dictKinds() {
		snap.dict.from[k] = dictFrom[k]
		snap.dict.syms[k] = dict.SymbolsFrom(dictFrom[k])
	}
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
	}
	// The new generation's rows may use symbols only the old log holds,
	// so the old log is made durable before the swap. If it cannot be,
	// it stays current, wedged, so every later append fails and no row
	// reaches a file that would outlive the deltas it depends on.
	d.logMu.Lock()
	defer d.logMu.Unlock()
	old := d.log.Path()
	if err := d.log.Close(); err != nil {
		d.fail(err)
		next.Close()
		d.fs.Remove(next.Path())
		return nil, "", err
	}
	d.log = next
	d.walLive.Store(0)
	return snap, old, nil
}

// Checkpoint commits everything written since the last checkpoint as a
// new generation: one segment per shard holding the rows each shard
// gained, and one dictionary delta file. Rotate-and-capture stops the
// world only for slice-header copies and file swaps; encoding and
// committing happen with writers flowing into the fresh log, and cost
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
	next, err := createWAL(d.fs, d.dir, nextWAL)
	if err != nil {
		return retry.MarkTransient(err)
	}
	d.gate.Lock()
	snap, oldWAL, err := d.rotate(s, d.ckptDict, next)
	d.gate.Unlock()
	if err != nil {
		return err
	}
	d.walGen = nextWAL
	// The rotated-out log stays tracked until a checkpoint commits: on
	// any failure below, recovery (and the next checkpoint's cleanup)
	// still needs it.
	d.staleWAL = append(d.staleWAL, oldWAL)
	if err := d.sticky(); err != nil {
		return err
	}
	if snap.empty() {
		// Every row and symbol the rotated logs hold is already in a
		// committed generation.
		removeAll(d.fs, d.staleWAL)
		d.staleWAL = nil
		return nil
	}

	// Encode and commit off the write path. Failures here (temp-file
	// write, fsync, manifest rename) happen before the commit point: the
	// previous generations stay authoritative and every row is still
	// recoverable from the WAL, so these errors are marked transient —
	// callers may simply call Checkpoint again, which rewrites this
	// generation with whatever arrived since.
	gen := d.gen + 1
	if err := commitFile(d.fs, segDictPath(d.dir, gen), encodeDictDelta(&snap.dict)); err != nil {
		return retry.MarkTransient(err)
	}
	// Each shard's blocks are adopted without the image just written: they
	// read their bytes back through a handle opened on the committed file.
	segErrs := make([]error, len(snap.shards))
	segBlocks := make([][]blockInfo, len(snap.shards))
	parallel.ForEach(len(snap.shards), func(i int) {
		data, blocks := encodeSegmentV2(&snap.shards[i])
		path := segPath(d.dir, gen, i)
		if segErrs[i] = commitFile(d.fs, path, data); segErrs[i] != nil || len(blocks) == 0 {
			return
		}
		var sr *segReader
		if sr, segErrs[i] = openSegment(d.fs, path); segErrs[i] != nil {
			return
		}
		for b := range blocks {
			blocks[b].seg = sr
		}
		segBlocks[i] = blocks
	})
	closeNew := func() {
		for _, blocks := range segBlocks {
			if len(blocks) > 0 {
				blocks[0].seg.close()
			}
		}
	}
	if err := firstErr(segErrs); err != nil {
		closeNew()
		return retry.MarkTransient(err)
	}
	gens := append(slices.Clip(d.gens), gen)
	man := &manifest{Version: manifestVersion, Shards: len(s.shards), Gen: gen, NextSeq: snap.nextSeq, Gens: gens}
	if err := writeManifest(d.fs, d.dir, man); err != nil {
		closeNew()
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

// createWAL creates generation gen's log and makes its directory entry
// durable before any row is appended to it: without the directory fsync a
// power loss could drop the new file, and every row acknowledged into it.
// A failure leaves no file behind.
func createWAL(fsys faultfs.FS, dir string, gen uint64) (*wal.Log, error) {
	lg, err := wal.CreateFS(fsys, walPath(dir, gen))
	if err != nil {
		return nil, err
	}
	if err := syncDir(fsys, filepath.Join(dir, walDirName)); err != nil {
		lg.Close()
		fsys.Remove(lg.Path())
		return nil, err
	}
	return lg, nil
}

// removeAll best-effort deletes the given files (cleanup after a commit;
// a leftover file is re-deleted by the next checkpoint).
func removeAll(fsys faultfs.FS, paths []string) {
	for _, p := range paths {
		fsys.Remove(p)
	}
}

// Close flushes and fsyncs the log and closes it, and releases the read
// handles of the segment files. Close on an in-memory store is a no-op.
// The returned error is the sticky durability error, if any — a nil
// return means everything written is on disk. After Close a query that
// misses the block cache fails with a *BlockReadError wrapping ErrClosed.
func (s *Store) Close() error {
	d := s.dur
	if d == nil {
		return nil
	}
	if d.closed.Swap(true) {
		if d.readOnly {
			return nil
		}
		return d.sticky()
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	segErr := s.closeSegments()
	if d.readOnly {
		// Nothing is open for writing; there is nothing to flush.
		return segErr
	}
	d.logMu.Lock()
	lg := d.log
	d.logMu.Unlock()
	if err := lg.Close(); err != nil {
		d.fail(err)
	}
	if err := d.sticky(); err != nil {
		return err
	}
	return segErr
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
	st := DurableStats{Dir: d.dir, Gen: d.gen, Segments: len(d.gens) * len(s.shards), WALBytes: d.walLive.Load()}
	d.ckptMu.Unlock()
	return st, true
}

// loadSegments opens one shard's listed segments, reads each through its
// handle once and decodes them, in generation order, straight into the
// shard's columns (shard.decodeSegments), their residual rows left lazy
// behind the block cache and read back through the handles on a miss.
// Returns one past the highest row seq loaded (0 when none).
func (s *Store) loadSegments(fsys faultfs.FS, dir string, shard int, gens []uint64, cache *blockCache) (uint64, error) {
	files := make([]segFile, 0, len(gens))
	for _, gen := range gens {
		f, err := readSegment(fsys, segPath(dir, gen, shard))
		if err != nil {
			for _, f := range files {
				f.r.close()
			}
			return 0, fmt.Errorf("store: %s lists generation %d: %w", manifestName, gen, err)
		}
		files = append(files, f)
	}
	return s.shards[shard].decodeSegments(files,
		s.cells.Len(), s.mos.Len(), s.pairs.Len(), cache)
}

// readSegment opens a segment file read-only and reads its image through
// the handle, which it returns open.
func readSegment(fsys faultfs.FS, path string) (segFile, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return segFile{}, err
	}
	sr := &segReader{path: path, r: f}
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		data := make([]byte, size)
		if err = sr.readAt(data, 0); err == nil {
			return segFile{path: path, data: data, r: sr}, nil
		}
	}
	sr.close()
	return segFile{}, err
}

// openSegment opens a committed segment file read-only, for its blocks to
// read back.
func openSegment(fsys faultfs.FS, path string) (*segReader, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	return &segReader{path: path, r: f}, nil
}

// closeSegments closes the read handles of every shard's segment files
// and returns the first failure.
func (s *Store) closeSegments() error {
	var first error
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		if sh.blk != nil {
			if err := sh.blk.closeFiles(); first == nil {
				first = err
			}
		}
		sh.mu.RUnlock()
	}
	return first
}

// BlockCacheStats returns the residual-block cache counters of a durable
// store; ok is false for an in-memory store, which holds no lazy blocks.
func (s *Store) BlockCacheStats() (BlockCacheStats, bool) {
	d := s.dur
	if d == nil {
		return BlockCacheStats{}, false
	}
	return d.cache.stats(), true
}

// walReplay replays one log through fn and returns its intact byte count:
// Open's keeps the log open for appending (truncating a torn tail), a
// read-only open's scans it through wal.ScanFS.
type walReplay func(path string, fn func(typ byte, payload []byte) error) (int64, error)

// recovered is what recoverDir rebuilt from a directory.
type recovered struct {
	s        *Store
	cache    *blockCache
	walFiles []walFile // the logs replayed, oldest first
	drained  []walFile // empty logs of the earlier per-shard layout
	walBytes int64
	// What the next checkpoint keeps: the committed generations and the
	// symbols per dictionary they hold.
	gens     []uint64
	ckptDict [3]int
}

// walRows is the WAL rows recovery replays after the segments, collected
// raw by one scan for the shards to decode in parallel: the payloads back
// to back in buf, and per shard the start and end offset of each of its
// rows, in log order. homes memoizes the home shard of each MO id.
type walRows struct {
	buf   []byte
	spans [][]int
	homes []int32
}

// recoverDir is the one recovery pipeline of writable and read-only opens:
// (1) the committed generations' dictionary files in order, (2) one scan
// of each WAL generation in order, applying dictionary deltas as it meets
// them and collecting the rows past the manifest watermark by home shard
// (rows below it live in the segments), then (3) per shard, in parallel,
// its committed segments in generation order, appended into one
// block-backed prefix, followed by its collected rows. Torn WAL tails end
// replay silently (the crash contract); corruption inside intact frames or
// committed files is a hard error, never a silent partial load, and so is
// a file the manifest lists that is missing. A row's deltas precede it in
// the log, so an id past the recovered dictionaries is corruption too.
func recoverDir(fsys faultfs.FS, dir string, man *manifest, opts Options, replay walReplay) (*recovered, error) {
	nShards := man.Shards
	s := NewSharded(nShards)
	gens := man.Gens
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

	// 2. The WAL, one scan per generation.
	var err error
	if rec.walFiles, rec.drained, err = listWALFiles(fsys, dir); err != nil {
		return nil, err
	}
	dicts := s.dictKinds()
	var logBytes int64
	for _, wf := range rec.walFiles {
		logBytes += wf.size
	}
	tail := &walRows{buf: make([]byte, 0, logBytes), spans: make([][]int, nShards)}
	for _, wf := range rec.walFiles {
		n, err := replay(wf.path, func(typ byte, payload []byte) error {
			switch typ {
			case recDict:
				return applyDictDelta(dicts, payload)
			case recRow:
				return s.routeRow(tail, payload, man.NextSeq)
			}
			return fmt.Errorf("record type %d", typ)
		})
		if err != nil {
			return nil, err
		}
		rec.walBytes += n
	}

	// 3. Shards in parallel: each shard's generations append their eager
	// columns as one block-backed prefix and leave residuals lazy behind
	// the block cache; the shard's WAL rows follow.
	rec.cache = newBlockCache(opts.BlockCacheBytes)
	maxSeqs := make([]uint64, nShards)
	errs := make([]error, nShards)
	parallel.ForEach(nShards, func(i int) {
		if maxSeqs[i], errs[i] = s.loadSegments(fsys, dir, i, gens, rec.cache); errs[i] != nil {
			return
		}
		walMax, err := s.replayRows(i, tail)
		if err != nil {
			errs[i] = fmt.Errorf("wal %s: %w", filepath.Join(dir, walDirName), err)
		}
		maxSeqs[i] = max(maxSeqs[i], walMax)
	})
	if err := firstErr(errs); err != nil {
		s.closeSegments()
		return nil, err
	}
	nextSeq := man.NextSeq
	for _, m := range maxSeqs {
		nextSeq = max(nextSeq, m)
	}
	s.nextSeq.Store(nextSeq)
	return rec, nil
}

// routeRow files one WAL row record under its home shard, unless its seq
// is below the manifest watermark nextSeq (the row is in a segment). The
// home shard comes from the row's moving object, whose delta the scan has
// already applied.
func (s *Store) routeRow(t *walRows, payload []byte, nextSeq uint64) error {
	d := rowDecoder{b: payload}
	seq, mo := d.uvarint(), d.uvarint()
	if d.err != nil {
		return d.err
	}
	if mo >= uint64(len(t.homes)) {
		for _, sym := range s.mos.SymbolsFrom(len(t.homes)) {
			t.homes = append(t.homes, int32(s.shardIndex(sym)))
		}
		if mo >= uint64(len(t.homes)) {
			return fmt.Errorf("store: corrupt record: mo id %d beyond dictionary size %d", mo, len(t.homes))
		}
	}
	if seq < nextSeq {
		return nil
	}
	g := t.homes[mo]
	t.spans[g] = append(t.spans[g], len(t.buf))
	t.buf = append(t.buf, payload...)
	t.spans[g] = append(t.spans[g], len(t.buf))
	return nil
}

// replayRows decodes shard i's collected WAL rows against the recovered
// dictionaries — frozen snapshots, since the scan has applied every delta,
// so a symbol lookup takes no lock — and appends them to the shard's
// columns, returning one past the highest seq among them (0 when none).
// The rows share one string table, so a transition or annotation string
// that repeats across them is allocated once.
func (s *Store) replayRows(i int, t *walRows) (uint64, error) {
	sh := &s.shards[i]
	cells, mos := s.cells.Freeze(), s.mos.Freeze()
	strs := make(map[string]string)
	var maxSeq uint64
	sh.mu.Lock()
	defer sh.mu.Unlock()
	spans := t.spans[i]
	sh.reserve(len(spans) / 2)
	for k := 0; k < len(spans); k += 2 {
		r, err := decodeRow(t.buf[spans[k]:spans[k+1]], cells.Len(), mos.Len(), s.pairs.Len(), cells.Symbol, mos.Symbol, strs)
		if err != nil {
			return 0, err
		}
		sh.addSlot(r.seq, r.traj, r.moID, r.enc, r.ann, nil)
		maxSeq = max(maxSeq, r.seq+1)
	}
	return maxSeq, nil
}

// Open opens (creating if needed) a durable store rooted at dir and
// recovers it (recoverDir) with every log opened for appending, so torn
// tails are truncated. The newest WAL generation's log stays open for
// writes; older ones are deleted by the next checkpoint. A writable open
// also deletes what a crash or a failed checkpoint left behind — temp
// files and files of generations the manifest does not list — and the
// empty logs an earlier build's per-shard layout leaves after a drain or
// a checkpoint.
func Open(dir string, opts Options) (*Store, error) {
	fsys := faultfs.Or(opts.FS)
	if opts.ReadOnly {
		return openReadOnly(fsys, dir, opts)
	}
	man, err := readManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll(filepath.Join(dir, walDirName), 0o755); err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll(filepath.Join(dir, segDirName), 0o755); err != nil {
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

	var logs []*wal.Log // one per replayed generation, oldest first
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
		logs = append(logs, lg)
		return lg.Size(), nil
	})
	if err != nil {
		closeLogs()
		return nil, err
	}

	// Append to the newest log, or create one at the highest generation
	// any WAL file names; older logs are only read again if this open's
	// first checkpoint fails.
	walGen := uint64(1)
	for _, wf := range slices.Concat(rec.walFiles, rec.drained) {
		walGen = max(walGen, wf.gen)
	}
	var stale []string
	var lg *wal.Log
	if n := len(logs); n > 0 {
		for _, old := range logs[:n-1] {
			stale = append(stale, old.Path())
			old.Close()
		}
		lg = logs[n-1]
	}
	for _, wf := range rec.drained {
		fsys.Remove(wf.path)
	}
	if lg == nil {
		if lg, err = createWAL(fsys, dir, walGen); err != nil {
			rec.s.closeSegments()
			return nil, err
		}
	}
	sweepDir(fsys, dir, nil)
	sweepDir(fsys, filepath.Join(dir, segDirName), man.Gens)

	s := rec.s
	d := &durable{
		dir:        dir,
		fs:         fsys,
		cache:      rec.cache,
		log:        lg,
		dictLogged: [3]int{s.cells.Len(), s.mos.Len(), s.pairs.Len()},
		gen:        man.Gen,
		gens:       rec.gens,
		ckptDict:   rec.ckptDict,
		walGen:     walGen,
		staleWAL:   stale,
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
		fs:       fsys,
		cache:    rec.cache,
		readOnly: true,
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
