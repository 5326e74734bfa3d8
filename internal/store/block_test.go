package store

// Block-format tests (DESIGN.md §3.12): corruption granularity (every
// error names the failing block and byte offset, and truncation at every
// block boundary is detected), prune equivalence (zone-map pruning is
// invisible to results across shard counts and GOMAXPROCS), the
// allocation-free block-cache hit path, the cache's one budget and its
// eviction order, and v1 monolithic segments being rejected.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
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
	if _, err := bs.cols(0); err != nil { // warm the block
		t.Fatal(err)
	}
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
	c.mu.Lock()
	for e := c.hand; e != nil && (entries == 0 || e != c.hand); e = e.next {
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
			t.Fatalf("block %d: string copy of %d bytes for a %d-byte dictionary", e.key.block, len(bc.blob), dict)
		}
		counted += n
		entries++
	}
	c.mu.Unlock()
	st := c.stats()
	if entries == 0 || st.Entries != entries || st.Bytes != counted {
		t.Fatalf("cache holds %d entries, %d bytes; counted %d entries, %d bytes", st.Entries, st.Bytes, entries, counted)
	}
}

// TestBlockCacheSharingAndEviction exercises the cache contract on one
// store whose shards share its one budget: a tiny budget forces CLOCK
// evictions without affecting results, and a negative budget disables
// caching entirely.
func TestBlockCacheSharingAndEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	trajs := richCorpusTrajs(rng, 300)
	dir := blockTestDir(t, trajs, 2, 16)

	oracle := NewSharded(2)
	oracle.PutBatch(trajs)
	want := storeJSON(t, oracle)

	// Small enough that the two shards' working set overflows it (forcing
	// CLOCK evictions), big enough that individual blocks fit.
	a := mustOpen(t, dir, Options{ReadOnly: true, BlockCacheBytes: 1 << 14})
	if got := storeJSON(t, a); got != want {
		t.Fatal("store diverges from oracle under a tiny cache")
	}
	st, ok := a.BlockCacheStats()
	if !ok || st.Evictions == 0 {
		t.Fatalf("tiny budget saw no evictions: %+v (ok=%v)", st, ok)
	}
	if st.Misses == 0 || st.Entries == 0 || st.Bytes > 1<<14 {
		t.Fatalf("implausible cache stats: %+v", st)
	}
	mustClose(t, a)

	// Negative budget: nothing is retained, results unchanged.
	c := mustOpen(t, dir, Options{ReadOnly: true, BlockCacheBytes: -1})
	if got := storeJSON(t, c); got != want {
		t.Fatal("uncached store diverges from oracle")
	}
	if st, ok := c.BlockCacheStats(); !ok || st.Entries != 0 {
		t.Fatalf("negative budget must cache nothing: %+v (ok=%v)", st, ok)
	}
	mustClose(t, c)
}

// TestBlockCacheHoldsBlocksUnderSmallBudget: a budget that holds every
// block of the store, yet is less than eight times the largest one,
// caches every block on the first full read, and the second read is
// served from the cache without a single further decode.
func TestBlockCacheHoldsBlocksUnderSmallBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dir := blockTestDir(t, richCorpusTrajs(rng, 80), 2, 16)

	// Measure the blocks' footprints under an unbounded budget.
	full := mustOpen(t, dir, Options{ReadOnly: true, BlockCacheBytes: 1 << 40})
	full.All()
	ws, _ := full.BlockCacheStats()
	var largest int64
	full.dur.cache.mu.Lock()
	for _, e := range full.dur.cache.entries {
		largest = max(largest, e.cols.size)
	}
	full.dur.cache.mu.Unlock()
	mustClose(t, full)
	if ws.Entries < 3 || ws.Bytes >= 8*largest {
		t.Fatalf("%d blocks of %d bytes (largest %d): need a few blocks totalling under 8× the largest", ws.Entries, ws.Bytes, largest)
	}

	s := mustOpen(t, dir, Options{ReadOnly: true, BlockCacheBytes: ws.Bytes})
	defer mustClose(t, s)
	s.All()
	first, _ := s.BlockCacheStats()
	if first.Entries != ws.Entries || first.Bytes != ws.Bytes || first.Misses != int64(ws.Entries) {
		t.Fatalf("first read: %+v, want all %d blocks (%d bytes) cached after %d misses", first, ws.Entries, ws.Bytes, ws.Entries)
	}
	s.All()
	second, _ := s.BlockCacheStats()
	if second.Misses != first.Misses || second.Hits <= first.Hits || second.Evictions != 0 {
		t.Fatalf("second read: %+v after %+v, want only hits", second, first)
	}
}

// TestBlockCacheClockOrder pins the eviction order on a cache of three
// equal blocks: blocks that are never hit leave in insertion order — the
// block inserted last is never the next victim — and a hit on the oldest
// block, once the hand has cleared its bit, gives it a second chance, so
// the next insert evicts the block after it.
func TestBlockCacheClockOrder(t *testing.T) {
	c := newBlockCache(30)
	put := func(b int32) { c.put(blockKey{block: b}, &blockCols{size: 10}) }
	cached := func() []int32 {
		var out []int32
		for e := c.hand; e != nil && (len(out) == 0 || e != c.hand); e = e.next {
			out = append(out, e.key.block)
		}
		slices.Sort(out)
		return out
	}
	for b := int32(0); b < 7; b++ {
		put(b)
		var want []int32
		for k := max(b-2, 0); k <= b; k++ {
			want = append(want, k)
		}
		if got := cached(); !slices.Equal(got, want) {
			t.Fatalf("after inserting block %d: cached %v, want %v", b, got, want)
		}
	}
	if _, ok := c.get(blockKey{block: 4}); !ok {
		t.Fatal("block 4 not cached")
	}
	put(7)
	if got, want := cached(), []int32{4, 6, 7}; !slices.Equal(got, want) {
		t.Fatalf("after a hit on the oldest block: cached %v, want %v", got, want)
	}
	if st := c.stats(); st.Entries != 3 || st.Bytes != 30 || st.Evictions != 5 {
		t.Fatalf("stats %+v, want 3 entries, 30 bytes, 5 evictions", st)
	}
}

// TestV1SegmentRejected: a directory the retired monolithic encoder wrote
// (a version-1 manifest over SITMSEG1 segments) fails read-only and
// writable Open and InspectDir with the manifest's error, and every
// attempt leaves the directory byte-identical.
func TestV1SegmentRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	dir := t.TempDir()
	writeLegacySegmentDir(t, dir, richCorpusTrajs(rng, 250), 2)
	checkManifestV1Rejected(t, dir)
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
