package store

// Segment read-back tests: a block keeps no byte of its segment in
// memory, so a block-cache miss reads the block's payload and CRC back
// through the segment file's handle. These tests count what the store
// reads and opens through the filesystem seam, inject read faults and
// on-disk corruption after Open, and check that every handle is released.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"sitm/internal/core"
	"sitm/internal/faultfs"
)

// readCounter is a filesystem counting, per segment file, the opens, the
// closes and the bytes read through its handles.
type readCounter struct {
	faultfs.FS
	mu sync.Mutex
	//sitm:guardedby mu
	opens map[string]int
	//sitm:guardedby mu
	closes map[string]int
	//sitm:guardedby mu
	read map[string]int64
	//sitm:guardedby mu
	reads int // read calls
}

func newReadCounter(base faultfs.FS) *readCounter {
	c := &readCounter{FS: base}
	c.reset()
	return c
}

// reset zeroes every count.
func (c *readCounter) reset() {
	c.mu.Lock()
	c.opens, c.closes, c.read, c.reads = map[string]int{}, map[string]int{}, map[string]int64{}, 0
	c.mu.Unlock()
}

func (c *readCounter) add(path string, opens, closes int, n int64) {
	if !strings.HasSuffix(path, ".seg") {
		return
	}
	c.mu.Lock()
	c.opens[path] += opens
	c.closes[path] += closes
	c.read[path] += n
	if n > 0 {
		c.reads++
	}
	c.mu.Unlock()
}

// counts returns copies of the per-file counts and the read calls.
func (c *readCounter) counts() (opens, closes map[string]int, read map[string]int64, reads int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	opens, closes, read = map[string]int{}, map[string]int{}, map[string]int64{}
	for k, v := range c.opens {
		opens[k] = v
	}
	for k, v := range c.closes {
		closes[k] = v
	}
	for k, v := range c.read {
		read[k] = v
	}
	return opens, closes, read, c.reads
}

func (c *readCounter) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	c.add(name, 1, 0, 0)
	return &countedReads{File: f, c: c}, nil
}

func (c *readCounter) ReadFile(name string) ([]byte, error) {
	data, err := c.FS.ReadFile(name)
	c.add(name, 0, 0, int64(len(data)))
	return data, err
}

type countedReads struct {
	faultfs.File
	c *readCounter
}

func (f *countedReads) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.c.add(f.Name(), 0, 0, int64(n))
	return n, err
}

func (f *countedReads) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.c.add(f.Name(), 0, 0, int64(n))
	return n, err
}

func (f *countedReads) Close() error {
	f.c.add(f.Name(), 0, 1, 0)
	return f.File.Close()
}

// segFiles returns the paths and sizes of dir's segment files.
func segFiles(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, segDirName, "*.seg"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no segment files in %s (%v)", dir, err)
	}
	out := map[string]int64{}
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = fi.Size()
	}
	return out
}

// cachedBlockBytes sums payload + CRC bytes over the blocks s's cache
// holds.
func cachedBlockBytes(s *Store) int64 {
	c := s.dur.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for key := range c.entries {
		n += int64(key.bs.blocks[key.block].plen + 4)
	}
	return n
}

// TestSegmentReadsAreCounted counts what the store reads: an open reads
// each listed segment file once, through the one handle it opens on it;
// a query whose k blocks miss the cache reads exactly their k payloads
// and CRCs, in k reads; the same query again hits and reads nothing.
func TestSegmentReadsAreCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	trajs := richCorpusTrajs(rng, 400)
	dir := blockTestDir(t, trajs, 2, 16)
	files := segFiles(t, dir)
	for _, ro := range []bool{true, false} {
		fsys := newReadCounter(faultfs.OS)
		s := mustOpen(t, copyTree(t, dir), Options{ReadOnly: ro, FS: fsys, BlockCacheBytes: 1 << 30})
		opens, _, read, _ := fsys.counts()
		if len(opens) != len(files) {
			t.Fatalf("read-only=%v: open touched %d segment files, want %d", ro, len(opens), len(files))
		}
		for p, n := range opens {
			if size := files[filepath.Join(dir, segDirName, filepath.Base(p))]; n != 1 || read[p] != size {
				t.Fatalf("read-only=%v: %s opened %d times and %d bytes read, want once and its %d bytes", ro, p, n, read[p], size)
			}
		}

		from, to := at(60*24*3), at(60*24*4)
		for round := range 2 {
			fsys.reset()
			before, _ := s.BlockCacheStats()
			if _, err := s.Select(TimeOverlap(from, to)); err != nil {
				t.Fatal(err)
			}
			after, _ := s.BlockCacheStats()
			_, _, _, reads := fsys.counts()
			total := readBytes(fsys)
			k := after.Misses - before.Misses
			switch {
			case round == 0 && (k == 0 || k == int64(blockCount(s))):
				t.Fatalf("read-only=%v: the window misses %d of %d blocks; want some, not all", ro, k, blockCount(s))
			case round == 0 && (total != cachedBlockBytes(s) || int64(reads) != k):
				t.Fatalf("read-only=%v: %d misses read %d bytes in %d reads, want their payloads and CRCs, %d bytes",
					ro, k, total, reads, cachedBlockBytes(s))
			case round == 1 && (k != 0 || total != 0):
				t.Fatalf("read-only=%v: a repeated query missed %d blocks and read %d bytes, want 0 and 0", ro, k, total)
			}
		}
		mustClose(t, s)
	}
}

// blockCount is the number of blocks across s's shards.
func blockCount(s *Store) int {
	n := 0
	for i := range s.shards {
		if bs := s.shards[i].blk; bs != nil {
			n += len(bs.blocks)
		}
	}
	return n
}

// homeMOs returns, per shard of s, an MO of trajs living there.
func homeMOs(s *Store, trajs []core.Trajectory) []string {
	out := make([]string, len(s.shards))
	for _, tr := range trajs {
		if g := s.shardIndex(tr.MO); out[g] == "" {
			out[g] = tr.MO
		}
	}
	return out
}

// checkQueryFails checks that every query method reading mo's rows fails
// with a *BlockReadError on path wrapping want: the ones with an error
// result return it, the ones without panic with it.
func checkQueryFails(t *testing.T, s *Store, mo, path string, want error) {
	t.Helper()
	check := func(what string, err error) {
		t.Helper()
		var bre *BlockReadError
		if !errors.As(err, &bre) || bre.Path != path || !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want a *BlockReadError on %s wrapping %v", what, err, path, want)
		}
	}
	_, err := s.Select(ByMO(mo))
	check("Select", err)
	_, err = s.GetByMO(mo)
	check("GetByMO", err)
	check("WriteJSON", s.WriteJSON(new(strings.Builder)))
	for name, fn := range map[string]func(){
		"ByMO": func() { s.ByMO(mo) },
		"All":  func() { s.All() },
	} {
		func() {
			defer func() {
				err, _ := recover().(error)
				check(name+" (panic)", err)
			}()
			fn()
		}()
	}
}

// TestSegmentReadFaultFailsOnlyMissingQueries: after a clean open, a read
// error on one segment file, or a byte of it changed on disk, fails the
// queries that miss on that file's blocks — with a *BlockReadError, never
// a crash — and only those; once the fault clears (the byte restored) the
// same queries succeed, since nothing of a failure is cached.
func TestSegmentReadFaultFailsOnlyMissingQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	trajs := richCorpusTrajs(rng, 300)
	dir := blockTestDir(t, trajs, 2, 16)
	oracle := NewSharded(2)
	oracle.PutBatch(trajs)

	inj := faultfs.NewInjector(faultfs.OS)
	// No cache: every query misses, so a cleared fault is proven by the
	// read-back itself, not by a block cached earlier.
	s := mustOpen(t, dir, Options{ReadOnly: true, FS: inj, BlockCacheBytes: -1})
	defer mustClose(t, s)
	mos := homeMOs(s, trajs)
	bad := segPath(dir, 1, 0) // shard 0's segment
	ok := func(mo string) {
		t.Helper()
		got, err := s.GetByMO(mo)
		if want := oracle.ByMO(mo); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("ByMO(%s): %d rows, %v; want %d rows", mo, len(got), err, len(want))
		}
	}

	t.Run("read-error", func(t *testing.T) {
		inj.Add(faultfs.Fault{Op: faultfs.OpRead, Path: filepath.Base(bad), Err: syscall.EIO})
		checkQueryFails(t, s, mos[0], bad, syscall.EIO)
		ok(mos[1]) // shard 1's blocks live in another file
		inj.Reset()
		ok(mos[0])
	})

	t.Run("checksum", func(t *testing.T) {
		data, err := os.ReadFile(bad)
		if err != nil {
			t.Fatal(err)
		}
		off := int64(segBlockOffsets(t, data)[0] + 1) // inside block 0's payload
		flip := func() {
			t.Helper()
			f, err := os.OpenFile(bad, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			b := []byte{0}
			if _, err := f.ReadAt(b, off); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x40
			if _, err := f.WriteAt(b, off); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		flip()
		checkQueryFails(t, s, mos[0], bad, errBlockChecksum)
		ok(mos[1])
		flip() // restored
		ok(mos[0])
	})
}

// TestSegmentHandlesReleasedByClose: 64 opens and closes of a durable
// store, read-only and writable, some checkpointing a new generation on
// the way and one failing on a corrupt segment, leave no segment handle
// open — every open through the filesystem seam is matched by a close —
// and after Close a query that misses the cache fails with ErrClosed.
func TestSegmentHandlesReleasedByClose(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trajs := richCorpusTrajs(rng, 200)
	dir := blockTestDir(t, trajs, 2, 16)
	fsys := newReadCounter(faultfs.OS)
	var some string
	for i := range 64 {
		ro := i%2 == 0
		s := mustOpen(t, dir, Options{ReadOnly: ro, FS: fsys, BlockCacheBytes: -1})
		mos := homeMOs(s, trajs)
		some = mos[i%len(mos)]
		if len(s.ByMO(some)) == 0 {
			t.Fatalf("open %d: no rows for %s", i, some)
		}
		if !ro && i%8 == 1 {
			s.PutBatch(richCorpusTrajs(rng, 20))
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		mustClose(t, s)
		if _, err := s.GetByMO(some); !errors.Is(err, ErrClosed) {
			t.Fatalf("open %d: a miss after Close: err = %v, want ErrClosed", i, err)
		}
	}
	// A failed open closes what it opened: the newest generation's last
	// segment is corrupt, so the files before it were opened in vain.
	paths, _ := filepath.Glob(filepath.Join(dir, segDirName, "*.seg"))
	last := paths[len(paths)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(last, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir, Options{ReadOnly: true, FS: fsys}); err == nil {
		s.Close()
		t.Fatal("open of a corrupt segment succeeded")
	}
	opens, closes, _, _ := fsys.counts()
	if len(opens) < 4 {
		t.Fatalf("segment files opened: %v, want the checkpoints' too", opens)
	}
	for p, n := range opens {
		if closes[p] != n {
			t.Errorf("%s: opened %d times, closed %d", p, n, closes[p])
		}
	}
}
