package store

import (
	"bytes"
	"errors"
	"fmt"
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
	if _, err := sh.decodeSegments([]segFile{{path, data}}, 1<<30, 1<<30, 1<<30, nil); err != nil {
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
				wb, cb := &w.blk.blocks[b], &c.blk.blocks[b]
				if wb.base != cb.base || wb.zone != cb.zone || wb.tscale != cb.tscale || !bytes.Equal(wb.res, cb.res) {
					t.Errorf("read-only=%v shard %d block %d: writer's block differs from the cold open's", ro, i, b)
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
// before its commit — writing a segment, syncing one, or renaming the
// MANIFEST — changes nothing in memory: every shard keeps its
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
			if err := s.Checkpoint(); !errors.Is(err, tc.fault.Err) {
				t.Fatalf("checkpoint under the fault: err = %v, want %v", err, tc.fault.Err)
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

// TestParentLayoutOpensAndUpgrades: a directory in the previous build's
// layout (version-1 manifest, full dictionary file, SITMSEG2 segments)
// opens read-only and writable as the identical store, and the next
// checkpoint writes the multi-generation layout: the SITMSEG2 generation
// is kept and the new rows follow it.
func TestParentLayoutOpensAndUpgrades(t *testing.T) {
	shards := shardCount()
	if shards == 0 {
		shards = 2
	}
	genFiles := func(gen uint64) []string {
		names := []string{filepath.Base(segDictPath("", gen))}
		for i := 0; i < shards; i++ {
			names = append(names, filepath.Base(segPath("", gen, i)))
		}
		slices.Sort(names)
		return names
	}
	for _, tc := range []struct {
		name     string
		write    func(*testing.T, string, []core.Trajectory, int)
		segments int    // committed segments the store reports at open
		gens     string // generations listed after the upgrade
		segFiles []string
	}{
		{"v2-segments", writeParentV2Dir,
			shards, "[1 2]", append(genFiles(1), genFiles(2)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(53))
			trajs := richCorpusTrajs(rng, 120)
			oracle := NewSharded(1)
			oracle.PutBatch(trajs)
			dir := t.TempDir()
			tc.write(t, dir, trajs, shards)

			for _, ro := range []bool{true, false} {
				s := mustOpen(t, dir, Options{ReadOnly: ro})
				if got, want := storeJSON(t, s), storeJSON(t, oracle); got != want {
					t.Fatalf("read-only=%v open of the parent layout diverged", ro)
				}
				compareStores(t, oracle, s, rng)
				if st, _ := s.Durability(); st.Gen != 1 || st.Segments != tc.segments {
					t.Fatalf("read-only=%v: %+v, want gen 1 with %d segments", ro, st, tc.segments)
				}
				if ro {
					mustClose(t, s)
					continue
				}
				more := richCorpusTrajs(rng, 30)
				s.PutBatch(more)
				oracle.PutBatch(more)
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				mustClose(t, s)
			}

			man, err := readManifest(faultfs.OS, dir)
			if err != nil {
				t.Fatal(err)
			}
			if man.Version != manifestVersion || fmt.Sprint(man.Gens) != tc.gens {
				t.Fatalf("manifest after upgrade: %+v, want version %d listing %s", man, manifestVersion, tc.gens)
			}
			if got := dirNames(t, filepath.Join(dir, segDirName)); !slices.Equal(got, tc.segFiles) {
				t.Fatalf("seg dir after upgrade: %v, want %v", got, tc.segFiles)
			}
			for _, ro := range []bool{true, false} {
				s := mustOpen(t, dir, Options{ReadOnly: ro})
				if got, want := storeJSON(t, s), storeJSON(t, oracle); got != want {
					t.Fatalf("read-only=%v reopen after the upgrade diverged", ro)
				}
				compareStores(t, oracle, s, rng)
				mustClose(t, s)
			}
		})
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
