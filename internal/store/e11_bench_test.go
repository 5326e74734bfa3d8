package store

// E11 (DESIGN.md §3.12): block-structured compressed segments vs the
// retired monolithic v1 format. The corpus (the e7 synthetic set, sorted
// by span start — the time-ordered arrival a production ingest feed
// produces) is checkpointed into a v2 directory and also written by the
// v1 encoder, which survives here only as a size baseline:
//
//   - Cold open: a read-only open of the v2 directory decodes eager
//     columns and zone maps only, deferring every residual block.
//   - Windowed query from cold: open + compile TimeOverlap(one day) +
//     SelectCompiledCtx + close materializes only the blocks the zone
//     maps cannot prune.
//   - On-disk size: per-column block compression vs the verbatim v1 blob.
//
// TestE11BlocksBeatMonolith enforces those properties in tier-1 as block
// counts and a size ceiling, not wall-clock ratios, after proving the v2
// directory and the in-memory oracle observably identical (WriteJSON
// byte-equality + the full compareStores surface).

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"sitm/internal/core"
	"sitm/internal/faultfs"
	"sitm/internal/symtab"
)

const (
	e11Trajs     = 4000
	e11Shards    = 4
	e11BlockRows = 64 // block size the E11 directories are built with
)

// e11Corpus is the e7 synthetic set in time-of-arrival order: sorting by
// span start models a live ingest feed and gives segment blocks the
// temporal locality zone maps exist to exploit.
func e11Corpus(tb testing.TB) []core.Trajectory {
	tb.Helper()
	trajs := slices.Clone(e7Trajectories(tb)[:e11Trajs])
	slices.SortStableFunc(trajs, func(a, b core.Trajectory) int {
		return a.Start().Compare(b.Start())
	})
	return trajs
}

// The retired single-generation layout, which no build reads any more:
// a version-1 manifest whose one generation is a full dictionary file and
// one segment per shard, monolithic (SITMSEG1) in the earliest builds.
// It is written only as E11's size baseline and as the input of the
// rejection tests.
const (
	manifestV1  = 1
	dictMagicV1 = "SITMDCT1"
	segMagicV1  = "SITMSEG1"
)

// encodeDictFile serializes the three full dictionary pages: the
// dictionary file of a version-1 manifest's generation.
func encodeDictFile(cells, mos, pairs []string) []byte {
	var payload []byte
	payload = symtab.AppendPage(payload, cells)
	payload = symtab.AppendPage(payload, mos)
	payload = symtab.AppendPage(payload, pairs)
	return frame(dictMagicV1, payload)
}

// encodeSegmentV1 lays the captured columns out column-major: row count,
// then the seqs, moIDs, encs, anns and span columns, then the residual
// row blobs — one monolithic checksummed blob: the retired SITMSEG1
// format, kept as the size baseline of the E11 ceiling and as the input
// of the rejection tests. Checkpoints write the block-structured v2
// layout (block.go).
func encodeSegmentV1(c *segmentColumns) []byte {
	var p []byte
	p = binary.AppendUvarint(p, uint64(len(c.seqs)))
	for _, s := range c.seqs {
		p = binary.AppendUvarint(p, s)
	}
	for _, id := range c.moIDs {
		p = binary.AppendUvarint(p, uint64(id))
	}
	for _, enc := range c.encs {
		p = appendIDs(p, enc)
	}
	for _, ann := range c.anns {
		p = appendIDs(p, ann)
	}
	for i := range c.starts {
		p = binary.AppendVarint(p, c.starts[i])
		p = binary.AppendVarint(p, c.ends[i])
	}
	for i := range c.trajs {
		p = appendRowResidual(p, c.trajs[i])
	}
	return frame(segMagicV1, p)
}

// writeLegacySegmentDir writes a checkpointed durable directory in the
// monolithic v1 segment format — byte-for-byte what the pre-block encoder
// produced: v1 segments, dict pages, a committed version-1 manifest, and
// an empty WAL directory (a clean checkpoint has no tail).
func writeLegacySegmentDir(tb testing.TB, dir string, trajs []core.Trajectory, shards int) {
	tb.Helper()
	mem := NewSharded(shards)
	mem.PutBatch(trajs)
	fsys := faultfs.OS
	for _, sub := range []string{segDirName, walDirName} {
		if err := fsys.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			tb.Fatal(err)
		}
	}
	const gen = uint64(1)
	dict := encodeDictFile(mem.cells.SymbolsFrom(0), mem.mos.SymbolsFrom(0), mem.pairs.SymbolsFrom(0))
	if err := commitFile(fsys, segDictPath(dir, gen), dict); err != nil {
		tb.Fatal(err)
	}
	for i := range mem.shards {
		sh := &mem.shards[i]
		cols := segmentColumns{
			seqs: sh.seqs, moIDs: sh.moIDs, encs: sh.encs, anns: sh.anns,
			starts: sh.starts, ends: sh.ends, trajs: sh.trajs,
		}
		if err := commitFile(fsys, segPath(dir, gen, i), encodeSegmentV1(&cols)); err != nil {
			tb.Fatal(err)
		}
	}
	man := &manifest{Version: manifestV1, Shards: shards, Gen: gen, NextSeq: mem.nextSeq.Load()}
	if err := writeManifest(fsys, dir, man); err != nil {
		tb.Fatal(err)
	}
}

// e11Dirs builds (once per binary run) two checkpointed directories with
// the identical corpus: v1 monolithic segments (the size baseline, which
// no build opens any more) and v2 block segments.
var e11V1Cache, e11V2Cache string

func e11Dirs(tb testing.TB) (v1Dir, v2Dir string) {
	tb.Helper()
	if e11V1Cache == "" {
		trajs := e11Corpus(tb)
		prev := segBlockRows
		segBlockRows = e11BlockRows
		defer func() { segBlockRows = prev }()

		v1, err := os.MkdirTemp("", "sitm-e11v1-*")
		if err != nil {
			tb.Fatal(err)
		}
		writeLegacySegmentDir(tb, v1, trajs, e11Shards)

		v2, err := os.MkdirTemp("", "sitm-e11v2-*")
		if err != nil {
			tb.Fatal(err)
		}
		s, err := Open(v2, Options{Shards: e11Shards})
		if err != nil {
			tb.Fatal(err)
		}
		s.PutBatch(trajs)
		if err := s.Checkpoint(); err != nil {
			tb.Fatal(err)
		}
		if err := s.Close(); err != nil {
			tb.Fatal(err)
		}
		e11V1Cache, e11V2Cache = v1, v2
	}
	return e11V1Cache, e11V2Cache
}

// segFileBytes sums the segment file sizes (dict pages excluded — both
// formats share the identical dict encoding).
func segFileBytes(tb testing.TB, dir string) int64 {
	tb.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, segDirName))
	if err != nil {
		tb.Fatal(err)
	}
	var total int64
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			tb.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// e11Window is the canonical narrow query: one mid-corpus day out of the
// ~90-day span.
func e11Window() (time.Time, time.Time) {
	from := day.AddDate(0, 0, 45)
	return from, from.AddDate(0, 0, 1)
}

// e11OpenQuery cold-opens dir read-only, runs the compiled one-day window
// query, and returns the match count.
func e11OpenQuery(tb testing.TB, dir string) int {
	tb.Helper()
	s, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		tb.Fatal(err)
	}
	from, to := e11Window()
	cq, err := s.Compile(TimeOverlap(from, to))
	if err != nil {
		tb.Fatal(err)
	}
	ts, err := s.SelectCompiledCtx(context.Background(), cq)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	return len(ts)
}

// BenchmarkE11ColdOpenBlocks (E11 after): read-only open of the v2
// block-structured directory — eager columns + zone maps, residuals lazy.
func BenchmarkE11ColdOpenBlocks(b *testing.B) {
	_, v2 := e11Dirs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(v2, Options{ReadOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != e11Trajs {
			b.Fatal("short recovery")
		}
		s.Close()
	}
}

// BenchmarkE11WindowQueryBlocks (E11 after): cold open + compiled one-day
// window query against the v2 directory; zone maps prune the blocks the
// window cannot touch.
func BenchmarkE11WindowQueryBlocks(b *testing.B) {
	_, v2 := e11Dirs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e11OpenQuery(b, v2) == 0 {
			b.Fatal("window matched nothing")
		}
	}
}

// BenchmarkE11SegmentSize reports the two formats' on-disk segment bytes
// (bytes/op metrics; the floor test enforces the ratio).
func BenchmarkE11SegmentSize(b *testing.B) {
	v1, v2 := e11Dirs(b)
	v1b, v2b := segFileBytes(b, v1), segFileBytes(b, v2)
	for i := 0; i < b.N; i++ {
		_ = v1b
	}
	b.ReportMetric(float64(v1b), "v1-bytes")
	b.ReportMetric(float64(v2b), "v2-bytes")
	b.ReportMetric(float64(v2b)/float64(v1b), "v2/v1-ratio")
}

// TestE11BlocksBeatMonolith enforces the E11 acceptance criteria in
// tier-1 with deterministic assertions — on a v2 directory proven
// observably identical to the in-memory oracle first:
//
//   - the block-structured format occupies ≤60% of the v1 segment bytes
//     the retired encoder writes for the same rows;
//   - a cold v2 open reads each segment file once, decodes no residual
//     block (block-cache misses and bytes are 0 after Open + Len) and
//     holds no trajectory value: every slot is block-backed;
//   - the cold one-day window query decodes exactly the blocks holding a
//     matching row, counted from the corpus rather than from the answer,
//     which is fewer than all blocks, reading from the segment files
//     exactly those blocks' payloads and CRCs; and the prune loop scans
//     slot by slot exactly the blocks whose extents neither exclude nor
//     cover the window.
//
// BenchmarkE11* report the wall-clock side; end to end, perfbench's
// open_p50_ms gates v2 open.
func TestE11BlocksBeatMonolith(t *testing.T) {
	v1Dir, v2Dir := e11Dirs(t)
	trajs := e11Corpus(t)

	// Equivalence first: oracle vs the on-disk store.
	oracle := NewSharded(e11Shards)
	oracle.PutBatch(trajs)
	sV2, err := Open(v2Dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	var bufO, buf2 bytes.Buffer
	if err := oracle.WriteJSON(&bufO); err != nil {
		t.Fatal(err)
	}
	if err := sV2.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufO.Bytes(), buf2.Bytes()) {
		t.Fatal("v2 recovery and in-memory oracle materialize different stores")
	}
	compareStores(t, oracle, sV2, rand.New(rand.NewSource(0xE11)))
	if t.Failed() {
		t.Fatal("v2 recovery diverges from the oracle on the query surface")
	}
	from, to := e11Window()
	a, err := oracle.Select(TimeOverlap(from, to))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sV2.Select(TimeOverlap(from, to))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("window query diverges: %d vs %d trajectories", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("window matched nothing — floor would be vacuous")
	}
	sV2.Close()

	// On-disk size ceiling: v2 ≤ 60% of v1.
	v1Bytes, v2Bytes := segFileBytes(t, v1Dir), segFileBytes(t, v2Dir)
	ratio := float64(v2Bytes) / float64(v1Bytes)
	if ratio > 0.60 {
		t.Fatalf("v2 segments %d bytes = %.0f%% of v1 %d bytes, want ≤60%%", v2Bytes, ratio*100, v1Bytes)
	}
	t.Logf("E11 size: v1 %d bytes, v2 %d bytes (%.0f%%)", v1Bytes, v2Bytes, ratio*100)

	// Cold open reads each segment file once, decodes no residual block
	// and keeps no trajectory value.
	reads := newReadCounter(faultfs.OS)
	cold, err := Open(v2Dir, Options{ReadOnly: true, BlockCacheBytes: 1 << 30, FS: reads})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if cold.Len() != e11Trajs {
		t.Fatal("short recovery")
	}
	if st, _ := cold.BlockCacheStats(); st.Misses != 0 || st.Bytes != 0 {
		t.Fatalf("cold v2 open decoded residual blocks: %+v", st)
	}
	if n := readBytes(reads); n != v2Bytes {
		t.Fatalf("cold v2 open read %d segment bytes, want each file once: %d", n, v2Bytes)
	}
	reads.reset()
	for i := range cold.shards {
		if n := len(cold.shards[i].trajs); n != 0 {
			t.Fatalf("cold shard %d holds %d trajectory values, want 0", i, n)
		}
	}

	// The window query decodes exactly the blocks holding a matching row,
	// and scans slot by slot exactly the blocks its extents can't decide.
	want := e11WindowBlocks(cold, trajs, from, to)
	if want.matching == 0 || want.matching >= want.total {
		t.Fatalf("window touches %d of %d blocks — assertion would be vacuous", want.matching, want.total)
	}
	cq, err := cold.Compile(TimeOverlap(from, to))
	if err != nil {
		t.Fatal(err)
	}
	scanned := 0
	for i := range cold.shards {
		sh := &cold.shards[i]
		sh.mu.RLock()
		ctx := execCtx{s: cold, sh: sh}
		cq.plan.exec(&ctx)
		sh.mu.RUnlock()
		scanned += ctx.scannedZones
	}
	if scanned != want.scanned || scanned >= want.total {
		t.Fatalf("prune loop scanned %d blocks slot by slot, want %d of %d", scanned, want.scanned, want.total)
	}
	got, err := cold.SelectCompiledCtx(context.Background(), cq)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(a) {
		t.Fatal("cold window query diverges from the oracle answer")
	}
	st, _ := cold.BlockCacheStats()
	if st.Misses != int64(want.matching) || st.Evictions != 0 {
		t.Fatalf("window query decoded %d blocks (%d evictions), want exactly the %d of %d holding a matching row",
			st.Misses, st.Evictions, want.matching, want.total)
	}
	if n, blocks := readBytes(reads), cachedBlockBytes(cold); n != blocks {
		t.Fatalf("window query read %d segment bytes, want the decoded blocks' payloads and CRCs: %d", n, blocks)
	}
	t.Logf("E11 window: %d of %d blocks decoded (%d of %d segment bytes read), %d scanned slot by slot",
		st.Misses, want.total, readBytes(reads), v2Bytes, scanned)
}

// readBytes is the segment bytes read through c since its last reset.
func readBytes(c *readCounter) int64 {
	_, _, read, _ := c.counts()
	var n int64
	for _, b := range read {
		n += b
	}
	return n
}

// e11BlockCounts is what the one-day window should cost on the v2 dir.
type e11BlockCounts struct {
	total    int // blocks across all shards
	matching int // blocks holding a row whose span overlaps the window
	scanned  int // blocks whose extents neither exclude nor cover it
}

// e11WindowBlocks derives the block-level cost of TimeOverlap(from, to)
// from the corpus alone: rows land in shards by s.shardIndex in corpus
// order, each shard's slots fill e11BlockRows-row blocks, and each
// block's extents and matches follow from direct time.Time comparisons.
func e11WindowBlocks(s *Store, trajs []core.Trajectory, from, to time.Time) e11BlockCounts {
	type ext struct {
		minStart, maxStart, minEnd, maxEnd time.Time
		match                              bool
	}
	perShard := make([][]ext, len(s.shards))
	counts := make([]int, len(s.shards))
	for _, tr := range trajs {
		g := s.shardIndex(tr.MO)
		b := counts[g] / e11BlockRows
		counts[g]++
		st, en := tr.Start(), tr.End()
		if b == len(perShard[g]) {
			perShard[g] = append(perShard[g], ext{minStart: st, maxStart: st, minEnd: en, maxEnd: en})
		}
		e := &perShard[g][b]
		if st.Before(e.minStart) {
			e.minStart = st
		}
		if st.After(e.maxStart) {
			e.maxStart = st
		}
		if en.Before(e.minEnd) {
			e.minEnd = en
		}
		if en.After(e.maxEnd) {
			e.maxEnd = en
		}
		if !en.Before(from) && !st.After(to) {
			e.match = true
		}
	}
	var c e11BlockCounts
	for _, blocks := range perShard {
		for _, e := range blocks {
			c.total++
			if e.match {
				c.matching++
			}
			disjoint := e.maxEnd.Before(from) || e.minStart.After(to)
			covered := !e.minEnd.Before(from) && !e.maxStart.After(to)
			if !disjoint && !covered {
				c.scanned++
			}
		}
	}
	return c
}
