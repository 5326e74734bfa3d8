package store

// Block-format tests (DESIGN.md §3.12): corruption granularity (every
// error names the failing block and byte offset, and truncation at every
// block boundary is detected), prune equivalence (zone-map pruning is
// invisible to results across shard counts and GOMAXPROCS), the
// allocation-free block-cache hit path, cache sharing and eviction, and
// v1 monolithic segments being rejected.

import (
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"sitm/internal/core"
)

// richCorpusTrajs extends randomCorpusTrajs with the residual-only fields
// — transitions, per-point annotations, transition annotations — so block
// round-trips exercise every residual branch.
func richCorpusTrajs(rng *rand.Rand, n int) []core.Trajectory {
	out := randomCorpusTrajs(rng, n)
	doors := []string{"", "door3", "lift-A", "stairs"}
	for i := range out {
		tr := out[i].Trace.Clone()
		for k := range tr {
			tr[k].Transition = doors[rng.Intn(len(doors))]
			if rng.Intn(3) == 0 {
				tr[k].Ann = core.NewAnnotations("dwell", fmt.Sprint(rng.Intn(4)))
			}
			if tr[k].Transition != "" && rng.Intn(2) == 0 {
				tr[k].TransitionAnn = core.NewAnnotations("crowded", fmt.Sprint(rng.Intn(2)))
			}
		}
		out[i].Trace = tr
	}
	return out
}

// blockTestDir checkpoints trajs into a fresh durable directory using
// blockRows-row blocks and returns the directory.
func blockTestDir(t *testing.T, trajs []core.Trajectory, shards, blockRows int) string {
	t.Helper()
	prev := segBlockRows
	segBlockRows = blockRows
	defer func() { segBlockRows = prev }()
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Shards: shards})
	s.PutBatch(trajs)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustClose(t, s)
	return dir
}

// segBlockOffsets parses a v2 segment image and returns the byte offset
// of every block payload plus the trailing end offset (so consecutive
// entries delimit payload+CRC extents).
func segBlockOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	ml := len(segMagicV2)
	if string(data[:ml]) != segMagicV2 {
		t.Fatalf("not a v2 segment")
	}
	hlen, w := binary.Uvarint(data[ml:])
	hdr := data[ml+w : ml+w+int(hlen)]
	d := &rowDecoder{b: hdr}
	d.uvarint() // total rows
	nBlocks := int(d.uvarint())
	offs := []int{ml + w + int(hlen) + 4}
	for b := 0; b < nBlocks; b++ {
		plen := d.uvarint()
		d.zone()
		if d.err != nil {
			t.Fatalf("header parse: %v", d.err)
		}
		offs = append(offs, offs[len(offs)-1]+int(plen)+4)
	}
	if offs[len(offs)-1] != len(data) {
		t.Fatalf("parsed end %d, file %d bytes", offs[len(offs)-1], len(data))
	}
	return offs
}

// firstSegFile returns the path of the lexically first segment file.
func firstSegFile(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir + "/" + segDirName)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			return dir + "/" + segDirName + "/" + e.Name()
		}
	}
	t.Fatal("no segment file")
	return ""
}

// TestDecodeSegmentV2ErrorGranularity corrupts and truncates one
// many-block segment every way the ISSUE names: a flipped byte in each
// block must be reported with that block's index and byte offset, and
// truncation at every block boundary (exact, one byte short, one byte
// into the next payload) must fail the open with a block-granular error.
func TestDecodeSegmentV2ErrorGranularity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := blockTestDir(t, richCorpusTrajs(rng, 200), 1, 16)
	segFile := firstSegFile(t, dir)
	orig, err := os.ReadFile(segFile)
	if err != nil {
		t.Fatal(err)
	}
	offs := segBlockOffsets(t, orig)
	nBlocks := len(offs) - 1
	if nBlocks < 4 {
		t.Fatalf("want a many-block segment, got %d blocks", nBlocks)
	}

	reopen := func() error {
		s, err := Open(dir, Options{ReadOnly: true})
		if err == nil {
			s.Close()
		}
		return err
	}
	restore := func(img []byte) {
		if err := os.WriteFile(segFile, img, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Flipped byte inside each block payload → that block's index and the
	// payload's byte offset appear in the error.
	for b := 0; b < nBlocks; b++ {
		img := append([]byte(nil), orig...)
		img[offs[b]] ^= 0xFF
		restore(img)
		err := reopen()
		if err == nil {
			t.Fatalf("block %d: corruption not detected", b)
		}
		want := fmt.Sprintf("block %d at offset %d", b, offs[b])
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("block %d: error %q does not name %q", b, err, want)
		}
	}

	// Truncation at, just before, and just after every block boundary.
	for b := 1; b <= nBlocks; b++ {
		for _, cut := range []int{offs[b], offs[b] - 1, offs[b] + 1} {
			if cut >= len(orig) {
				continue
			}
			restore(orig[:cut])
			err := reopen()
			if err == nil {
				t.Fatalf("truncation at %d (block %d boundary) not detected", cut, b)
			}
			if !strings.Contains(err.Error(), "block") && !strings.Contains(err.Error(), "trailing") {
				t.Fatalf("truncation at %d: error %q lacks block context", cut, err)
			}
		}
	}

	// Header truncation fails before any block is touched.
	restore(orig[:len(segMagicV2)+2])
	if err := reopen(); err == nil {
		t.Fatal("header truncation not detected")
	}

	restore(orig)
	if err := reopen(); err != nil {
		t.Fatalf("restored image must reopen: %v", err)
	}
}

// TestZoneMapPruneEquivalence is the zone-map property test: Select
// results with pruning active are bit-equal to a prune-disabled run of
// the same directory, across shard counts {1, 2, 8} × GOMAXPROCS {1, 8},
// for randomized TimeOverlap / CellDuring / conjunctive plans — and, for
// in-memory and mixed stores (live/, mixed/ subtests, zone_test.go), to a
// direct scan as well.
func TestZoneMapPruneEquivalence(t *testing.T) {
	zonePruneLiveAndMixed(t)
	rng := rand.New(rand.NewSource(11))
	trajs := richCorpusTrajs(rng, 400)
	cells := []string{"A", "B", "C", "D", "E", "F", "G", "H", "Z"}
	for _, shards := range []int{1, 2, 8} {
		for _, procs := range []int{1, 8} {
			t.Run(fmt.Sprintf("shards=%d/procs=%d", shards, procs), func(t *testing.T) {
				prevProcs := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prevProcs)
				dir := blockTestDir(t, trajs, shards, 32)
				pruned := mustOpen(t, dir, Options{ReadOnly: true})
				defer mustClose(t, pruned)
				flat := mustOpen(t, dir, Options{ReadOnly: true})
				flat.noPrune = true
				defer mustClose(t, flat)
				qrng := rand.New(rand.NewSource(int64(shards*100 + procs)))
				for i := 0; i < 60; i++ {
					from := day.Add(time.Duration(qrng.Intn(5200)) * time.Minute)
					to := from.Add(time.Duration(1+qrng.Intn(600)) * time.Minute)
					cell := cells[qrng.Intn(len(cells))]
					var q Query
					switch i % 3 {
					case 0:
						q = TimeOverlap(from, to)
					case 1:
						q = CellDuring(cell, from, to)
					default:
						q = And(Cell(cell), TimeOverlap(from, to))
					}
					a, err := pruned.Select(q)
					if err != nil {
						t.Fatal(err)
					}
					b, err := flat.Select(q)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(a) != fmt.Sprint(b) {
						t.Fatalf("query %d (%T): pruned %d rows, unpruned %d rows", i, q, len(a), len(b))
					}
				}
			})
		}
	}
}

// TestBlockCacheHitPathAllocs pins the AllocsPerRun guard: after a block
// is decoded once, serving its columns from the cache performs zero
// allocations.
func TestBlockCacheHitPathAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dir := blockTestDir(t, richCorpusTrajs(rng, 100), 1, 16)
	s := mustOpen(t, dir, Options{ReadOnly: true})
	defer mustClose(t, s)
	bs := s.shards[0].blk
	if bs == nil {
		t.Fatal("recovered shard holds no lazy block state")
	}
	bs.cols(0) // warm the block
	if n := testing.AllocsPerRun(100, func() { bs.cols(0) }); n != 0 {
		t.Fatalf("block-cache hit path allocates %v times per op, want 0", n)
	}
}

// TestBlockCacheBytesAreExactFootprints: the cache charges each block the
// exact footprint of its decoded columns, so its Bytes is the sum, counted
// here field by field, of what the cached columns hold — and a block's
// string copy holds its dictionary and nothing else.
func TestBlockCacheBytesAreExactFootprints(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	dir := blockTestDir(t, richCorpusTrajs(rng, 300), 2, 16)
	s := mustOpen(t, dir, Options{ReadOnly: true})
	defer mustClose(t, s)
	s.All()
	c := s.dur.cache
	var counted int64
	entries := 0
	for i := range c.shards {
		cs := &c.shards[i]
		cs.mu.Lock()
		for _, e := range cs.ring {
			bc := e.cols
			n := int64(unsafe.Sizeof(blockCols{})) + int64(len(bc.blob))
			n += int64(cap(bc.strs)) * int64(unsafe.Sizeof(""))
			n += int64(cap(bc.ivs)) * int64(unsafe.Sizeof(colIv{}))
			n += int64(cap(bc.keys)) * int64(unsafe.Sizeof(colKey{}))
			for _, col := range [][]int32{bc.ivOff, bc.rowAnn, bc.setOff, bc.vals} {
				n += int64(cap(col)) * int64(unsafe.Sizeof(int32(0)))
			}
			dict := 0
			for _, str := range bc.strs {
				dict += len(binary.AppendUvarint(nil, uint64(len(str)))) + len(str)
			}
			if dict != len(bc.blob) {
				t.Fatalf("block %v: string copy of %d bytes for a %d-byte dictionary", e.key, len(bc.blob), dict)
			}
			counted += n
			entries++
		}
		cs.mu.Unlock()
	}
	st := c.Stats()
	if entries == 0 || st.Entries != entries || st.Bytes != counted {
		t.Fatalf("cache holds %d entries, %d bytes; counted %d entries, %d bytes", st.Entries, st.Bytes, entries, counted)
	}
}

// TestBlockCacheSharingAndEviction exercises the cache contract: two
// read-only replicas share one budget through Options.BlockCache, a
// tiny budget forces CLOCK evictions without affecting results, and a
// negative budget disables caching entirely.
func TestBlockCacheSharingAndEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	trajs := richCorpusTrajs(rng, 300)
	dir := blockTestDir(t, trajs, 2, 16)

	oracle := NewSharded(2)
	oracle.PutBatch(trajs)
	want := storeJSON(t, oracle)

	// Small enough that the replicas' combined working set overflows it
	// (forcing CLOCK evictions), big enough that individual blocks fit.
	shared := NewBlockCache(1 << 16)
	a := mustOpen(t, dir, Options{ReadOnly: true, BlockCache: shared})
	b := mustOpen(t, dir, Options{ReadOnly: true, BlockCache: shared})
	if got := storeJSON(t, a); got != want {
		t.Fatal("replica A diverges from oracle under a shared cache")
	}
	if got := storeJSON(t, b); got != want {
		t.Fatal("replica B diverges from oracle under a shared cache")
	}
	st := shared.Stats()
	if st.Evictions == 0 {
		t.Fatalf("tiny shared budget saw no evictions: %+v", st)
	}
	if st.Misses == 0 || st.Bytes > 1<<16 {
		t.Fatalf("implausible shared-cache stats: %+v", st)
	}
	if got, ok := a.BlockCacheStats(); !ok || got != st {
		t.Fatalf("store stats %+v (ok=%v) disagree with cache %+v", got, ok, st)
	}
	mustClose(t, a)
	mustClose(t, b)

	// Negative budget: nothing is retained, results unchanged.
	c := mustOpen(t, dir, Options{ReadOnly: true, BlockCacheBytes: -1})
	if got := storeJSON(t, c); got != want {
		t.Fatal("uncached replica diverges from oracle")
	}
	if st, ok := c.BlockCacheStats(); !ok || st.Entries != 0 {
		t.Fatalf("negative budget must cache nothing: %+v (ok=%v)", st, ok)
	}
	mustClose(t, c)
}

// TestV1SegmentRejected: a directory whose segments were written by the
// retired monolithic encoder fails read-only and writable Open and
// InspectDir with an error that names the segment file and the way to
// upgrade it — once, not once per shard — and every attempt leaves the
// directory byte-identical.
func TestV1SegmentRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	dir := t.TempDir()
	writeLegacySegmentDir(t, dir, richCorpusTrajs(rng, 250), 2)
	before := dirBytes(t, dir)
	seg := segPath(dir, 1, 0)
	check := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s of a %s directory succeeded", what, segMagicV1)
		}
		for _, want := range []string{seg, "retired " + segMagicV1, "earlier build"} {
			if n := strings.Count(err.Error(), want); n != 1 {
				t.Fatalf("%s: error %q mentions %q %d times, want once", what, err, want, n)
			}
		}
		if !maps.Equal(dirBytes(t, dir), before) {
			t.Fatalf("%s changed the directory", what)
		}
	}
	_, err := Open(dir, Options{ReadOnly: true})
	check("read-only Open", err)
	_, err = Open(dir, Options{})
	check("writable Open", err)
	check("InspectDir", InspectDir(dir, io.Discard))
}

// TestAnnSetSortsAndDedupsKeys: an annotation map whose keys a segment
// lists out of order or twice (only a hand-made segment can) decodes to
// the set a map built from them holds — keys sorted, the last values of a
// repeated key kept — so the materialized map and the reply encoder agree.
func TestAnnSetSortsAndDedupsKeys(t *testing.T) {
	bc := &blockCols{strs: []string{"b", "a", "x", "y", "z"}, setOff: []int32{0}}
	var enc []byte
	for _, v := range []uint64{1 + 3, 0, 1, 2, 1, 1, 3, 0, 1, 4} { // b:[x] a:[y] b:[z]
		enc = binary.AppendUvarint(enc, v)
	}
	d := &rowDecoder{b: enc}
	set := d.annSet(bc)
	if d.err != nil || len(d.b) != 0 {
		t.Fatalf("decode: %v, %d bytes left", d.err, len(d.b))
	}
	got := bc.annotations(set)
	want := core.Annotations{"a": {"y"}, "b": {"z"}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("annotations = %v, want %v", got, want)
	}
	keys := bc.keys[bc.setOff[set]:bc.setOff[set+1]]
	if len(keys) != 2 || bc.strs[keys[0].str] != "a" || bc.strs[keys[1].str] != "b" {
		t.Fatalf("set keys %v, want a then b", keys)
	}
}
