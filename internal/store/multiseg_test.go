package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"syscall"
	"testing"

	"sitm/internal/core"
	"sitm/internal/faultfs"
	"sitm/internal/retry"
)

// Multi-segment layout tests: every checkpoint appends one generation (a
// segment per shard holding the rows since the previous checkpoint, plus a
// dictionary delta), the MANIFEST lists the generations in order, and
// recovery loads them one after another.

// segRows reads a v2 segment file's row count from its header.
func segRows(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sh shard
	sh.init()
	if _, err := sh.decodeSegments([]segFile{memSegFile(path, data)}, 1<<30, 1<<30, 1<<30, newBlockCache(-1)); err != nil {
		t.Fatal(err)
	}
	return len(sh.seqs)
}

// readDictDelta decodes a generation's dictionary file.
func readDictDelta(t *testing.T, path string) *dictDelta {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dd, err := decodeDictFile(data, path)
	if err != nil {
		t.Fatal(err)
	}
	return dd
}

// TestCheckpointWritesOnlyTail: checkpoint k writes exactly the rows put
// since checkpoint k−1 (counted from the new segments' headers) and a
// dictionary delta holding exactly the symbols interned since then; a
// checkpoint with nothing new writes nothing, and one whose rows reuse
// known symbols writes an empty delta.
func TestCheckpointWritesOnlyTail(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(41))
	s := mustOpen(t, dir, Options{Shards: shardCount()})
	shards := len(s.shards)
	ref := NewSharded(1)
	var committed [3]int
	check := func(gen uint64, wantRows int) {
		t.Helper()
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if st, _ := s.Durability(); st.Gen != gen || st.Segments != int(gen)*shards {
			t.Fatalf("after checkpoint %d: %+v", gen, st)
		}
		rows := 0
		for i := 0; i < shards; i++ {
			rows += segRows(t, segPath(dir, gen, i))
		}
		if rows != wantRows {
			t.Fatalf("checkpoint %d wrote %d rows, want the %d put since the previous one", gen, rows, wantRows)
		}
		dd := readDictDelta(t, segDictPath(dir, gen))
		for k, dict := range s.dictKinds() {
			want := dict.SymbolsFrom(committed[k])
			if dd.from[k] != committed[k] || !slices.Equal(dd.syms[k], want) {
				t.Fatalf("checkpoint %d dictionary %d delta = %d+%q, want %d+%q", gen, k, dd.from[k], dd.syms[k], committed[k], want)
			}
			committed[k] = dict.Len()
		}
	}
	var batch []core.Trajectory
	for k := 1; k <= 3; k++ {
		batch = randomCorpusTrajs(rng, 15*k)
		s.PutBatch(batch)
		ref.PutBatch(batch)
		check(uint64(k), len(batch))
	}

	// Nothing new: no generation, no file.
	before := dirNames(t, filepath.Join(dir, segDirName))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Durability(); st.Gen != 3 || st.WALBytes != 0 {
		t.Fatalf("empty checkpoint: %+v", st)
	}
	if after := dirNames(t, filepath.Join(dir, segDirName)); !slices.Equal(before, after) {
		t.Fatalf("empty checkpoint changed seg dir: %v → %v", before, after)
	}

	// Rows over known symbols only: an empty dictionary delta.
	s.PutBatch(batch[:5])
	ref.PutBatch(batch[:5])
	check(4, 5)
	if dd := readDictDelta(t, segDictPath(dir, 4)); !dd.empty() {
		t.Fatalf("delta of a checkpoint without new symbols holds %q", dd.syms)
	}
	mustClose(t, s)

	s = mustOpen(t, dir, Options{})
	defer mustClose(t, s)
	if got, want := storeJSON(t, s), storeJSON(t, ref); got != want {
		t.Fatal("reopen over four generations diverged from the reference")
	}
	compareStores(t, ref, s, rng)
}

// TestCheckpointedInProcessEqualsColdReopen: a writer that checkpointed
// three times (with a WAL tail after the last) and a cold reopen of its
// directory hold the same rows in the same slots — and the same shards
// block for block: every commit swaps the writer's checkpointed rows to
// the blocks it wrote, so its block-backed prefix (row count, block bases,
// zone maps, time scales, residual bytes) and its live tail (trajectory
// values, live zones) equal what the cold open loads. Right after each
// quiescent checkpoint the writer holds no trajectory value at all.
func TestCheckpointedInProcessEqualsColdReopen(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(43))
	s := mustOpen(t, dir, Options{Shards: shardCount()})
	defer mustClose(t, s)
	for k := 0; k < 3; k++ {
		s.PutBatch(richCorpusTrajs(rng, 40))
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := range s.shards {
			// cap, not len: a re-slice of the old column would keep every
			// released trajectory reachable behind it.
			if sh := &s.shards[i]; cap(sh.trajs) != 0 || int(sh.liveBase()) != len(sh.seqs) || len(sh.zones) != 0 {
				t.Fatalf("checkpoint %d shard %d: room for %d trajectory values, %d live zones, %d of %d rows block-backed",
					k+1, i, cap(sh.trajs), len(sh.zones), sh.liveBase(), len(sh.seqs))
			}
		}
	}
	s.PutBatch(richCorpusTrajs(rng, 10))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, ro := range []bool{true, false} {
		cold := mustOpen(t, copyTree(t, dir), Options{ReadOnly: ro})
		if got, want := storeJSON(t, cold), storeJSON(t, s); got != want {
			t.Fatalf("read-only=%v: cold reopen diverged from the writer", ro)
		}
		compareStores(t, s, cold, rng)
		for i := range s.shards {
			w, c := &s.shards[i], &cold.shards[i]
			w.mu.RLock()
			c.mu.RLock()
			if !slices.Equal(w.seqs, c.seqs) {
				t.Errorf("read-only=%v shard %d: slot order differs", ro, i)
			}
			if w.blk == nil || c.blk == nil {
				t.Fatalf("read-only=%v shard %d: writer or cold open has no block-backed prefix", ro, i)
			}
			if w.blk.rowCount != c.blk.rowCount || len(w.blk.blocks) != len(c.blk.blocks) {
				t.Errorf("read-only=%v shard %d: writer holds %d rows in %d blocks, cold open %d in %d",
					ro, i, w.blk.rowCount, len(w.blk.blocks), c.blk.rowCount, len(c.blk.blocks))
			}
			for b := range min(len(w.blk.blocks), len(c.blk.blocks)) {
				// The same bytes of the same file (the cold open's is a copy
				// of the writer's directory), decoding to the same columns.
				wb, cb := &w.blk.blocks[b], &c.blk.blocks[b]
				if wb.base != cb.base || wb.zone != cb.zone || wb.tscale != cb.tscale ||
					filepath.Base(wb.seg.path) != filepath.Base(cb.seg.path) ||
					wb.off != cb.off || wb.plen != cb.plen || wb.resOff != cb.resOff {
					t.Errorf("read-only=%v shard %d block %d: writer's block differs from the cold open's", ro, i, b)
				}
				wc, werr := w.blk.cols(b)
				cc, cerr := c.blk.cols(b)
				if werr != nil || cerr != nil || !reflect.DeepEqual(wc, cc) {
					t.Errorf("read-only=%v shard %d block %d: writer's decoded columns differ from the cold open's (%v, %v)", ro, i, b, werr, cerr)
				}
			}
			if live := len(w.seqs) - w.blk.rowCount; len(w.trajs) != live || len(c.trajs) != live {
				t.Errorf("read-only=%v shard %d: %d live rows, writer holds %d trajectory values, cold open %d",
					ro, i, live, len(w.trajs), len(c.trajs))
			}
			if !slices.Equal(w.zones, c.zones) {
				t.Errorf("read-only=%v shard %d: live zones differ", ro, i)
			}
			c.mu.RUnlock()
			w.mu.RUnlock()
		}
		mustClose(t, cold)
	}
}

// writerLayout is what a checkpoint's swap changes in one shard: the
// block-backed prefix, the trajectory values and the live zones.
type writerLayout struct {
	liveBase, trajs, blocks int
	zones                   []liveZone
}

func layoutOf(s *Store) []writerLayout {
	out := make([]writerLayout, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		out[i] = writerLayout{liveBase: int(sh.liveBase()), trajs: len(sh.trajs), zones: slices.Clone(sh.zones)}
		if sh.blk != nil {
			out[i].blocks = len(sh.blk.blocks)
		}
		sh.mu.RUnlock()
	}
	return out
}

// TestFailedCheckpointLeavesWriterUnchanged: a checkpoint that fails
// before its commit — syncing the directory of the next WAL generation's
// file, writing a segment, syncing one, or renaming the MANIFEST — fails
// transiently and changes nothing in memory: every shard keeps its
// block-backed prefix, trajectory values and live zones, and every query
// answers as before. Retried without the fault, the checkpoint commits and
// swaps every row to blocks, and a cold open holds the same store.
func TestFailedCheckpointLeavesWriterUnchanged(t *testing.T) {
	segTmp := segDirName + string(filepath.Separator) + ".tmp-"
	for _, tc := range []struct {
		name  string
		fault faultfs.Fault
	}{
		// After: 1 lets the checkpoint's dictionary file through, so the
		// fault hits a segment file.
		{"segment-write", faultfs.Fault{Op: faultfs.OpWrite, Path: segTmp, After: 1, Times: 1, Err: syscall.ENOSPC}},
		{"segment-fsync", faultfs.Fault{Op: faultfs.OpSync, Path: segTmp, After: 1, Times: 1, Err: syscall.EIO}},
		{"manifest-rename", faultfs.Fault{Op: faultfs.OpRename, Path: manifestName, Times: 1, Err: syscall.EIO}},
		// The directory fsync that makes the next WAL generation's file
		// durable, before the gate: the first sync of a path under wal/.
		{"wal-dir-fsync", faultfs.Fault{Op: faultfs.OpSync, Path: string(filepath.Separator) + walDirName, Times: 1, Err: syscall.EIO}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(61))
			trajs := richCorpusTrajs(rng, 160)
			ref := NewSharded(1)
			ref.PutBatch(trajs)
			fsys := faultfs.NewInjector(nil)
			s := mustOpen(t, dir, Options{Shards: shardCount(), FS: fsys})
			defer mustClose(t, s)
			s.PutBatch(trajs[:80])
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			s.PutBatch(trajs[80:])
			before, want := layoutOf(s), storeJSON(t, s)

			fsys.Add(tc.fault)
			if err := s.Checkpoint(); !errors.Is(err, tc.fault.Err) || !retry.IsTransient(err) {
				t.Fatalf("checkpoint under the fault: err = %v, want a transient %v", err, tc.fault.Err)
			}
			if n := fsys.Injected(); n != 1 {
				t.Fatalf("%d faults injected, want 1", n)
			}
			if after := layoutOf(s); !reflect.DeepEqual(after, before) {
				t.Fatalf("failed checkpoint changed the writer:\n%+v\nvs\n%+v", after, before)
			}
			if storeJSON(t, s) != want {
				t.Fatal("failed checkpoint changed the store's contents")
			}
			compareStores(t, ref, s, rng)

			fsys.Reset()
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("retry: %v", err)
			}
			for i, l := range layoutOf(s) {
				if l.trajs != 0 || len(l.zones) != 0 || l.liveBase != before[i].liveBase+before[i].trajs {
					t.Fatalf("shard %d after the retry: %+v, want every one of its %d rows block-backed",
						i, l, before[i].liveBase+before[i].trajs)
				}
			}
			if storeJSON(t, s) != want {
				t.Fatal("retried checkpoint changed the store's contents")
			}
			compareStores(t, ref, s, rng)
			cold := mustOpen(t, copyTree(t, dir), Options{ReadOnly: true})
			defer mustClose(t, cold)
			if storeJSON(t, cold) != want {
				t.Fatal("cold open after the retry diverged from the writer")
			}
		})
	}
}

// TestCheckpointRotationKeepsUnloggedSymbols: a writer interns its symbols
// before it takes the checkpoint gate, so a rotation can come between the
// interning and the logging. The rotation must leave those symbols
// unlogged: the writer logs them into the new WAL generation ahead of its
// rows. Here the checkpoint then fails at its MANIFEST rename, so the new
// generation's rows are durable only through the WAL; a cold open of a
// copy taken after the Sync must hold every acknowledged row.
func TestCheckpointRotationKeepsUnloggedSymbols(t *testing.T) {
	dir := t.TempDir()
	fsys := faultfs.NewInjector(nil)
	s := mustOpen(t, dir, Options{Shards: shardCount(), FS: fsys})
	defer mustClose(t, s)
	ref := NewSharded(1)
	first := []core.Trajectory{mkTraj(t, "mo-0", "a", "b")}
	s.PutBatch(first)
	ref.PutBatch(first)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	// A writer waiting at the gate has interned its cell already.
	s.cells.Intern("waiting")
	ref.cells.Intern("waiting")
	fsys.Add(faultfs.Fault{Op: faultfs.OpRename, Path: manifestName, Times: 1, Err: syscall.EIO})
	if err := s.Checkpoint(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("checkpoint under the fault: err = %v, want EIO", err)
	}
	more := []core.Trajectory{mkTraj(t, "mo-1", "waiting", "a"), mkTraj(t, "mo-2", "b", "waiting")}
	s.PutBatch(more)
	ref.PutBatch(more)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	cold := mustOpen(t, copyTree(t, dir), Options{})
	defer mustClose(t, cold)
	if cold.Len() != ref.Len() {
		t.Fatalf("cold open holds %d of the %d acknowledged rows", cold.Len(), ref.Len())
	}
	if storeJSON(t, cold) != storeJSON(t, ref) {
		t.Fatal("cold open diverged from the acknowledged rows")
	}
}

// TestRotationSyncFailureKeepsRowsOutOfNextLog: a checkpoint whose
// rotation cannot sync the old log fails, and the rows put after it must
// not reach the next generation's log, since they may use symbols only
// the old log's unsynced tail holds. After a crash that loses that tail,
// the directory opens with every acknowledged row.
func TestRotationSyncFailureKeepsRowsOutOfNextLog(t *testing.T) {
	dir := t.TempDir()
	fsys := faultfs.NewInjector(nil)
	s := mustOpen(t, dir, Options{Shards: shardCount(), FS: fsys})
	acked := []core.Trajectory{mkTraj(t, "mo-0", "a", "b")}
	s.PutBatch(acked)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	synced := walSize(s)
	s.PutBatch([]core.Trajectory{mkTraj(t, "mo-1", "c")})
	fsys.Add(faultfs.Fault{Op: faultfs.OpSync, Path: walPath(dir, 1), Times: 1, Err: syscall.EIO})
	if err := s.Checkpoint(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("checkpoint whose rotation cannot sync the old log: err = %v, want EIO", err)
	}
	s.PutBatch([]core.Trajectory{mkTraj(t, "mo-1", "c", "a")})
	if err := s.Sync(); err == nil {
		t.Fatal("Sync after the failed log sync succeeded")
	}
	s.Close()

	// The crash keeps only what the last successful Sync covered.
	probe := copyTree(t, dir)
	if err := os.Truncate(walPath(probe, 1), synced); err != nil {
		t.Fatal(err)
	}
	got := mustOpen(t, probe, Options{})
	defer mustClose(t, got)
	ref := NewSharded(1)
	ref.PutBatch(acked)
	if storeJSON(t, got) != storeJSON(t, ref) {
		t.Fatal("recovery after the failed rotation diverged from the acknowledged rows")
	}
}

// TestOpenFailsOnMissingListedFile: a MANIFEST that lists a segment or
// dictionary file that is not there fails the open, writable or
// read-only, with an error naming the path — never a silent partial load.
func TestOpenFailsOnMissingListedFile(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(47))
	s := mustOpen(t, dir, Options{Shards: 2})
	for k := 0; k < 2; k++ {
		s.PutBatch(randomCorpusTrajs(rng, 20))
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	mustClose(t, s)

	for _, missing := range []func(string) string{
		func(d string) string { return segPath(d, 1, 1) },
		func(d string) string { return segPath(d, 2, 0) },
		func(d string) string { return segDictPath(d, 1) },
		func(d string) string { return segDictPath(d, 2) },
	} {
		for _, ro := range []bool{true, false} {
			probe := copyTree(t, dir)
			path := missing(probe)
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			_, err := Open(probe, Options{ReadOnly: ro})
			if err == nil {
				t.Fatalf("read-only=%v: Open succeeded without listed %s", ro, filepath.Base(path))
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("read-only=%v: error %q does not name %s", ro, err, path)
			}
		}
	}
}

// writeParentV2Dir writes what the previous build's checkpoint left: a
// version-1 manifest whose one generation is a full dictionary file and
// one SITMSEG2 segment per shard.
func writeParentV2Dir(t *testing.T, dir string, trajs []core.Trajectory, shards int) {
	t.Helper()
	writeLegacySegmentDir(t, dir, trajs, shards)
	mem := NewSharded(shards)
	mem.PutBatch(trajs)
	for i := range mem.shards {
		sh := &mem.shards[i]
		cols := segmentColumns{
			seqs: sh.seqs, moIDs: sh.moIDs, encs: sh.encs, anns: sh.anns,
			starts: sh.starts, ends: sh.ends, trajs: sh.trajs,
		}
		seg, _ := encodeSegmentV2(&cols)
		if err := commitFile(faultfs.OS, segPath(dir, 1, i), seg); err != nil {
			t.Fatal(err)
		}
	}
}

// checkManifestV1Rejected checks that read-only Open, writable Open and
// InspectDir each fail on dir, whose manifest is version 1, with an error
// that names MANIFEST.json and the way to upgrade once, and leave the
// directory byte-identical.
func checkManifestV1Rejected(t *testing.T, dir string) {
	t.Helper()
	before := dirBytes(t, dir)
	open := func(opts Options) func() error {
		return func() error {
			s, err := Open(dir, opts)
			if err == nil {
				s.Close()
			}
			return err
		}
	}
	for _, tc := range []struct {
		what string
		run  func() error
	}{
		{"read-only Open", open(Options{ReadOnly: true})},
		{"writable Open", open(Options{})},
		{"InspectDir", func() error { return InspectDir(dir, io.Discard) }},
	} {
		err := tc.run()
		if err == nil {
			t.Fatalf("%s of a version-1 directory succeeded", tc.what)
		}
		for _, want := range []string{filepath.Join(dir, manifestName), "version 1", "earlier build", "sitm compact -store " + dir} {
			if n := strings.Count(err.Error(), want); n != 1 {
				t.Fatalf("%s: error %q mentions %q %d times, want once", tc.what, err, want, n)
			}
		}
		if !maps.Equal(dirBytes(t, dir), before) {
			t.Fatalf("%s changed the directory", tc.what)
		}
	}
}

// TestManifestV1LayoutRejected: the single-generation layout (version-1
// manifest, full dictionary file, SITMSEG2 segments) is no longer read:
// every open and InspectDir reject it with the manifest's error and
// leave it as it was. An earlier build rewrites it into the
// multi-generation layout at its first checkpoint that commits rows.
func TestManifestV1LayoutRejected(t *testing.T) {
	shards := shardCount()
	if shards == 0 {
		shards = 2
	}
	dir := t.TempDir()
	writeParentV2Dir(t, dir, richCorpusTrajs(rand.New(rand.NewSource(53)), 120), shards)
	checkManifestV1Rejected(t, dir)
}

// earlierLayoutDir writes a two-checkpoint directory holding trajs, then
// swaps its WAL for the earlier per-shard layout's files of the current
// generation (3): a dictionary log and one row log per shard, each holding
// data (or, when empty, what a drain, a compact or a checkpoint by an
// earlier build leaves).
func earlierLayoutDir(t *testing.T, trajs []core.Trajectory, shards int, data []byte) (dir string, old []string) {
	t.Helper()
	dir = t.TempDir()
	s := mustOpen(t, dir, Options{Shards: shards})
	for _, half := range [][]core.Trajectory{trajs[:len(trajs)/2], trajs[len(trajs)/2:]} {
		s.PutBatch(half)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	mustClose(t, s)
	if err := os.Remove(walPath(dir, 3)); err != nil {
		t.Fatal(err)
	}
	old = []string{filepath.Join(dir, walDirName, "00000003.dict.wal")}
	for i := 0; i < shards; i++ {
		old = append(old, filepath.Join(dir, walDirName, fmt.Sprintf("00000003-%04d.row.wal", i)))
	}
	for _, p := range old {
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, old
}

// TestParentLayoutOpensAndUpgrades: a directory in the previous build's
// layout (version-2 manifest, SITMSEG2 segments, a dictionary log and one
// row log per shard) that a drain or checkpoint left with empty WAL files
// opens and upgrades. A read-only open loads the store and leaves the old
// files; a writable open loads the same store, deletes them, and starts
// its one log at their generation, which the next checkpoint then follows.
func TestParentLayoutOpensAndUpgrades(t *testing.T) {
	t.Run("v2-segments", func(t *testing.T) {
		rng := rand.New(rand.NewSource(67))
		trajs := richCorpusTrajs(rng, 60)
		ref := NewSharded(1)
		ref.PutBatch(trajs)
		dir, old := earlierLayoutDir(t, trajs, 2, nil)

		before := dirBytes(t, dir)
		ro := mustOpen(t, dir, Options{ReadOnly: true})
		if storeJSON(t, ro) != storeJSON(t, ref) {
			t.Fatal("read-only open of the drained earlier layout diverged")
		}
		mustClose(t, ro)
		if !maps.Equal(dirBytes(t, dir), before) {
			t.Fatal("read-only open changed the directory")
		}

		rw := mustOpen(t, dir, Options{})
		if storeJSON(t, rw) != storeJSON(t, ref) {
			t.Fatal("writable open of the drained earlier layout diverged")
		}
		for _, p := range old {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("%s survived a writable open: %v", p, err)
			}
		}
		if got := dirNames(t, filepath.Join(dir, walDirName)); fmt.Sprint(got) != "[00000003.wal]" {
			t.Fatalf("wal dir after the writable open: %v, want [00000003.wal]", got)
		}
		more := richCorpusTrajs(rng, 10)
		rw.PutBatch(more)
		ref.PutBatch(more)
		if err := rw.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		mustClose(t, rw)
		if got := dirNames(t, filepath.Join(dir, walDirName)); fmt.Sprint(got) != "[00000004.wal]" {
			t.Fatalf("wal dir after the next checkpoint: %v, want [00000004.wal]", got)
		}
		again := mustOpen(t, dir, Options{ReadOnly: true})
		defer mustClose(t, again)
		if storeJSON(t, again) != storeJSON(t, ref) {
			t.Fatal("reopen after the upgrade diverged")
		}
	})
}

// TestNonEmptyEarlierWALLayoutRejected: a non-empty file of the earlier
// per-shard WAL layout holds rows or symbols this build cannot replay, so
// both opens fail with an error naming it and the way to upgrade, and
// leave the directory byte-identical.
func TestNonEmptyEarlierWALLayoutRejected(t *testing.T) {
	trajs := richCorpusTrajs(rand.New(rand.NewSource(71)), 20)
	for k := 0; k < 3; k++ { // the dictionary log, then each shard's row log
		dir, old := earlierLayoutDir(t, trajs, 2, nil)
		if err := os.WriteFile(old[k], []byte("frames"), 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirBytes(t, dir)
		for _, ro := range []bool{true, false} {
			s, err := Open(dir, Options{ReadOnly: ro})
			if err == nil {
				s.Close()
				t.Fatalf("read-only=%v: Open accepted %s", ro, old[k])
			}
			for _, want := range []string{old[k], "earlier build", "sitm compact -store " + dir} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("read-only=%v: error %q does not mention %q", ro, err, want)
				}
			}
			if !maps.Equal(dirBytes(t, dir), before) {
				t.Fatalf("read-only=%v: the failed open changed the directory", ro)
			}
		}
	}
}

// TestWritableOpenSweepsLeftovers plants what a crash inside commitFile
// (temp files in the directory and in seg/) and a checkpoint that failed
// before its commit (files of a generation the manifest does not list)
// leave behind. A read-only open loads the store and leaves every byte in
// place; a writable open loads the same store and deletes exactly the
// leftovers.
func TestWritableOpenSweepsLeftovers(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(59))
	ref := NewSharded(1)
	s := mustOpen(t, dir, Options{Shards: shardCount()})
	for k := 0; k < 2; k++ {
		batch := randomCorpusTrajs(rng, 20)
		s.PutBatch(batch)
		ref.PutBatch(batch)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	tail := randomCorpusTrajs(rng, 5)
	s.PutBatch(tail)
	ref.PutBatch(tail)
	mustClose(t, s)
	listed := dirNames(t, filepath.Join(dir, segDirName))

	seg2, err := os.ReadFile(segPath(dir, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	leftovers := map[string][]byte{
		filepath.Join(dir, ".tmp-1234"):                 []byte(`{"version":2`),
		filepath.Join(dir, segDirName, ".tmp-5678"):     seg2[:len(seg2)/2],
		segDictPath(dir, 3):                             []byte("SITMDCT2 torn"),
		segPath(dir, 3, 0):                              seg2,
		segPath(dir, 3, 1):                              seg2[:7],
		filepath.Join(dir, segDirName, "00000009.dict"): nil,
	}
	for path, data := range leftovers {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	before := dirBytes(t, dir)
	ro := mustOpen(t, dir, Options{ReadOnly: true})
	if got, want := storeJSON(t, ro), storeJSON(t, ref); got != want {
		t.Fatal("read-only open over leftovers diverged")
	}
	mustClose(t, ro)
	if after := dirBytes(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatal("read-only open changed the directory")
	}

	rw := mustOpen(t, dir, Options{})
	if got, want := storeJSON(t, rw), storeJSON(t, ref); got != want {
		t.Fatal("writable open over leftovers diverged")
	}
	for path := range leftovers {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("leftover %s survived a writable open: %v", path, err)
		}
	}
	if got := dirNames(t, filepath.Join(dir, segDirName)); !slices.Equal(got, listed) {
		t.Errorf("seg dir after writable open: %v, want the listed %v", got, listed)
	}
	// The next checkpoint reuses generation 3's names over clean ground.
	rw.PutBatch(randomCorpusTrajs(rng, 5))
	if err := rw.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := storeJSON(t, rw)
	mustClose(t, rw)
	again := mustOpen(t, dir, Options{ReadOnly: true})
	defer mustClose(t, again)
	if got := storeJSON(t, again); got != want {
		t.Fatal("checkpoint after the sweep did not round-trip")
	}
}

// TestInspectDirMultiGeneration pins the inspect report of a
// two-checkpoint directory: both generations' dictionary deltas and
// every shard's segment of each, in generation order.
func TestInspectDirMultiGeneration(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Shards: 2})
	for k := 0; k < 2; k++ {
		var batch []core.Trajectory
		for i := 0; i < 6; i++ {
			batch = append(batch, mkTraj(t, fmt.Sprintf("mo%d", (6*k+i)%4), "A", fmt.Sprintf("C%d", k*3+i%3)))
		}
		s.PutBatch(batch)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	mustClose(t, s)

	var buf bytes.Buffer
	if err := InspectDir(dir, &buf); err != nil {
		t.Fatal(err)
	}
	want := `MANIFEST: version 2, 2 shards, generations [1 2], next seq 12
dictionary 00000001: 49 bytes, +4 cells, +4 MOs, +1 pairs
segment 00000001-0000: 166 bytes, format v2 (blocks): 3 rows in 1 blocks
  block   0:    3 rows,     92 bytes, span 2017-02-14T00:00:00Z .. 2017-02-14T00:03:00Z, 4 cells, 2 MOs
segment 00000001-0001: 166 bytes, format v2 (blocks): 3 rows in 1 blocks
  block   0:    3 rows,     92 bytes, span 2017-02-14T00:00:00Z .. 2017-02-14T00:03:00Z, 4 cells, 2 MOs
dictionary 00000002: 27 bytes, +3 cells, +0 MOs, +0 pairs
segment 00000002-0000: 166 bytes, format v2 (blocks): 3 rows in 1 blocks
  block   0:    3 rows,     92 bytes, span 2017-02-14T00:00:00Z .. 2017-02-14T00:03:00Z, 4 cells, 2 MOs
segment 00000002-0001: 166 bytes, format v2 (blocks): 3 rows in 1 blocks
  block   0:    3 rows,     92 bytes, span 2017-02-14T00:00:00Z .. 2017-02-14T00:03:00Z, 4 cells, 2 MOs
segments: 664 bytes on disk
`
	if buf.String() != want {
		t.Fatalf("inspect report:\n%s\nwant:\n%s", buf.String(), want)
	}
}
