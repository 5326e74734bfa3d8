package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"time"
	"unsafe"

	"sitm/internal/core"
	"sitm/internal/symtab"
)

// Block-structured compressed segments, format "SITMSEG2" (DESIGN.md
// §3.12). Where the retired v1 format was one monolithic varint blob per
// shard, a v2 segment splits its rows into fixed-row-count blocks, each
// carrying its own CRC and a zone map, laid out as:
//
//	"SITMSEG2"
//	uvarint headerLen │ header │ crc32c(header)
//	block 0 payload │ crc32c(block 0)
//	block 1 payload │ crc32c(block 1)
//	...
//
// header: uvarint totalRows, uvarint blockCount, then per block a uvarint
// payload length and the block's zone map (min/max seq, min/max span
// start/end nanos, row count, distinct cell/MO counts, 256-bit cell-id
// bloom). The header alone answers "which blocks can match this
// predicate" without touching a single block byte.
//
// Each block payload holds a time scale — the GCD of every time delta in
// the block, so second- or minute-granular feeds encode their deltas in
// one or two bytes instead of six — then the eager columns: seqs (delta
// varint), moIDs (plain or run-length, whichever is smaller), spans
// (scaled delta varint), encs and anns (block-local sorted dictionaries +
// per-row local indexes) — followed by the residual section: a block-local string dictionary and
// per-row transition/time/annotation data. Cold Open reads each file once,
// decodes only the eager columns (rebuilding postings), structurally
// validates the residual and drops the file image: a block keeps only
// where its bytes are. Decoding the residual into columns (blockCols) is
// deferred until a query touches the block, behind the store's block
// cache, and a miss reads the block's payload back from its file,
// re-checks its CRC and decodes it (shardBlocks.cols). Corruption anywhere
// is reported with the block index and byte offset and fails that
// segment's load at Open; after a clean Open only the read-back can fail
// — an I/O error, or bytes changed under the store — and then it fails
// the query that missed with a *BlockReadError.

const segMagicV2 = "SITMSEG2"

// segBlockRows is the row capacity of one segment block. A variable so
// the block-boundary and pruning tests can exercise many-block segments
// with small corpora; the on-disk format carries explicit per-block row
// counts, so readers never depend on this value.
var segBlockRows = 1024

// ---- Zone maps -----------------------------------------------------------

// zoneMap summarizes one block for predicate pushdown: any trajectory in
// the block has seq ∈ [minSeq, maxSeq], span start ∈ [minStart, maxStart]
// and span end ∈ [minEnd, maxEnd] (unix nanos), and every cell id it
// visits is present in the bloom filter. Presence intervals lie inside
// their trajectory's span (validated at decode), so [minStart, maxEnd]
// also envelopes every interval in the block.
//
// The same struct, built by the same fold, summarizes each run of
// segBlockRows live slots (see liveZone) as rows arrive. A live zone
// leaves the distinct counts at zero (nothing prunes on them), and it is
// marked unbounded when a row's times escape what the extents can state:
// a time outside the int64 nanosecond range, or a presence interval
// outside its row's span. An unbounded zone is never disjoint from or
// covered by a window, so its rows are always tested one by one against
// the exact times.
type zoneMap struct {
	minSeq, maxSeq     uint64
	minStart, maxStart int64
	minEnd, maxEnd     int64
	rows               int32
	distinctCells      int32
	distinctMOs        int32
	bloom              [4]uint64 // 256-bit cell-id summary, 2 probes
	unbounded          bool      // never encoded: a decoded zone is bounded
}

// liveZone is the zone map of the live slots [base, base+zone.rows): rows
// inserted since the last checkpoint (or open), or all rows of an
// in-memory store.
type liveZone struct {
	base int32
	zone zoneMap
}

// Unix nanoseconds are defined for times strictly inside (minNanoTime,
// maxNanoTime) — the extremes themselves are excluded, so a window edge
// saturated to ±math.MaxInt64 compares against every in-range row time
// exactly as the unsaturated edge would.
var (
	minNanoTime = time.Unix(0, math.MinInt64)
	maxNanoTime = time.Unix(0, math.MaxInt64)
)

// nanosInRange reports whether t has a unix-nanosecond representation
// that the WAL and segment codecs (and zone extents) can hold.
func nanosInRange(t time.Time) bool {
	return t.After(minNanoTime) && t.Before(maxNanoTime)
}

// saturatingNanos is t.UnixNano() clamped to the int64 range instead of
// overflowing — the conversion for query window edges, which may lie in
// any year, and for the shard's span columns, since an in-memory store
// may hold a row outside the range.
func saturatingNanos(t time.Time) int64 {
	switch {
	case !t.After(minNanoTime):
		return math.MinInt64
	case !t.Before(maxNanoTime):
		return math.MaxInt64
	}
	return t.UnixNano()
}

// saturated reports whether n, a saturatingNanos result, stands for a
// time outside the int64 nanosecond range rather than being exact. An
// in-range time never converts to either extreme.
func saturated(n int64) bool { return n == math.MinInt64 || n == math.MaxInt64 }

// checkTimeRange reports an error naming the first of ts that has no
// unix-nanosecond representation: such a time cannot be written to a WAL
// or segment without silently changing.
func checkTimeRange(ts ...time.Time) error {
	for _, t := range ts {
		if !nanosInRange(t) {
			return fmt.Errorf("time %s outside the storable range (%s, %s)", t.Format(time.RFC3339Nano),
				minNanoTime.UTC().Format(time.RFC3339Nano), maxNanoTime.UTC().Format(time.RFC3339Nano))
		}
	}
	return nil
}

// checkTrajectoryTimes applies checkTimeRange to every presence interval
// of t, then to its span. A non-empty trace's span is made of interval
// times, so the span check only catches an empty trace, whose span is the
// zero time.Time.
func checkTrajectoryTimes(t core.Trajectory) error {
	for i, p := range t.Trace {
		if err := checkTimeRange(p.Start, p.End); err != nil {
			return fmt.Errorf("trajectory %q interval %d: %w", t.MO, i, err)
		}
	}
	if err := checkTimeRange(t.Start(), t.End()); err != nil {
		return fmt.Errorf("trajectory %q span: %w", t.MO, err)
	}
	return nil
}

// fold widens the zone to cover one more row: its seq, its span [stN,
// enN] (saturated unix nanos) and its presence intervals tr with their
// cell ids enc. It is the one rule for zone extents — foldZone folds each
// live row and encodeBlock each row of a block it writes.
// O(len(tr)), no allocation.
// The extents come from the span alone; each interval adds its cell to
// the bloom, and one outside the span (or any time outside the int64
// nanosecond range) marks the zone unbounded.
func (z *zoneMap) fold(seq uint64, stN, enN int64, tr core.Trace, enc []int32) {
	if saturated(stN) || saturated(enN) {
		z.unbounded = true
	}
	if z.rows == 0 {
		z.minSeq, z.maxSeq = seq, seq
		z.minStart, z.maxStart = stN, stN
		z.minEnd, z.maxEnd = enN, enN
	}
	z.rows++
	z.minSeq, z.maxSeq = min(z.minSeq, seq), max(z.maxSeq, seq)
	z.minStart, z.maxStart = min(z.minStart, stN), max(z.maxStart, stN)
	z.minEnd, z.maxEnd = min(z.minEnd, enN), max(z.maxEnd, enN)
	for i := range tr {
		p := &tr[i] // by pointer: a PresenceInterval is too big to copy per row
		if !nanosInRange(p.Start) || !nanosInRange(p.End) || p.Start.UnixNano() < stN || p.End.UnixNano() > enN {
			z.unbounded = true
		}
		z.bloomAdd(enc[i])
	}
}

// bloomPositions derives two bit positions in [0, 256) from a cell id.
//
//sitm:hotpath
func bloomPositions(id int32) (uint32, uint32) {
	x := uint32(id)*0x9E3779B1 + 0x7F4A7C15
	x ^= x >> 15
	x *= 0x85EBCA77
	x ^= x >> 13
	return x & 255, (x >> 16) & 255
}

func (z *zoneMap) bloomAdd(id int32) {
	a, b := bloomPositions(id)
	z.bloom[a>>6] |= 1 << (a & 63)
	z.bloom[b>>6] |= 1 << (b & 63)
}

// bloomHas reports whether the cell id may appear in the block (no false
// negatives for validated segments).
//
//sitm:hotpath
func (z *zoneMap) bloomHas(id int32) bool {
	a, b := bloomPositions(id)
	return z.bloom[a>>6]&(1<<(a&63)) != 0 && z.bloom[b>>6]&(1<<(b&63)) != 0
}

// timeDisjoint reports that no trajectory span (hence no presence
// interval) in the block can intersect [fromN, toN].
//
//sitm:hotpath
func (z *zoneMap) timeDisjoint(fromN, toN int64) bool {
	return !z.unbounded && (z.maxEnd < fromN || z.minStart > toN)
}

// timeCovered reports that every trajectory span in the block intersects
// [fromN, toN]: the earliest end is past from and the latest start before
// to, so the per-slot overlap test holds for all rows.
//
//sitm:hotpath
func (z *zoneMap) timeCovered(fromN, toN int64) bool {
	return !z.unbounded && z.minEnd >= fromN && z.maxStart <= toN
}

func appendZone(dst []byte, z *zoneMap) []byte {
	dst = binary.AppendUvarint(dst, z.minSeq)
	dst = binary.AppendUvarint(dst, z.maxSeq-z.minSeq)
	dst = binary.AppendVarint(dst, z.minStart)
	dst = binary.AppendVarint(dst, z.maxStart-z.minStart)
	dst = binary.AppendVarint(dst, z.minEnd-z.minStart)
	dst = binary.AppendVarint(dst, z.maxEnd-z.minEnd)
	dst = binary.AppendUvarint(dst, uint64(z.rows))
	dst = binary.AppendUvarint(dst, uint64(z.distinctCells))
	dst = binary.AppendUvarint(dst, uint64(z.distinctMOs))
	for _, w := range z.bloom {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

func (d *rowDecoder) zone() zoneMap {
	var z zoneMap
	z.minSeq = d.uvarint()
	z.maxSeq = z.minSeq + d.uvarint()
	z.minStart = d.varint()
	z.maxStart = z.minStart + d.varint()
	z.minEnd = z.minStart + d.varint()
	z.maxEnd = z.minEnd + d.varint()
	rows := d.uvarint()
	cells := d.uvarint()
	mos := d.uvarint()
	if d.err == nil && (rows > 1<<30 || cells > 1<<30 || mos > 1<<30) {
		d.fail("zone count out of range")
	}
	z.rows = int32(rows)
	z.distinctCells = int32(cells)
	z.distinctMOs = int32(mos)
	w := d.raw(32)
	if d.err == nil {
		for i := range z.bloom {
			z.bloom[i] = binary.LittleEndian.Uint64(w[i*8:])
		}
	}
	return z
}

// ---- Small decoder helpers (block-local dictionaries) -------------------

// raw consumes n bytes verbatim.
func (d *rowDecoder) raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b) {
		d.fail("truncated raw bytes")
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// skipStr consumes a length-prefixed string without materializing it.
func (d *rowDecoder) skipStr() {
	n := d.uvarint()
	if d.err != nil {
		return
	}
	if n > uint64(len(d.b)) {
		d.fail("truncated string")
		return
	}
	d.b = d.b[n:]
}

// localID decodes an index into a block-local dictionary of the given
// size. Callers must check d.err before using the result as an index.
func (d *rowDecoder) localID(limit int) int {
	v := d.uvarint()
	if d.err == nil && v >= uint64(limit) {
		d.fail(fmt.Sprintf("local id %d beyond block dictionary size %d", v, limit))
	}
	return int(v)
}

// deltaDict decodes a strictly ascending id dictionary (count, first id,
// then positive gaps), validating every id against limit.
func (d *rowDecoder) deltaDict(limit int) []int32 {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	prev := uint64(0)
	for i := range out {
		v := d.uvarint()
		if d.err != nil {
			return nil
		}
		if i > 0 {
			if v == 0 {
				d.fail("block dictionary not strictly ascending")
				return nil
			}
			v += prev
		}
		if v >= uint64(limit) {
			d.fail(fmt.Sprintf("id %d beyond dictionary size %d", v, limit))
			return nil
		}
		out[i] = int32(v)
		prev = v
	}
	return out
}

func appendDeltaDict(dst []byte, ids []int32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	prev := int32(0)
	for i, id := range ids {
		if i == 0 {
			dst = binary.AppendUvarint(dst, uint64(id))
		} else {
			dst = binary.AppendUvarint(dst, uint64(id-prev))
		}
		prev = id
	}
	return dst
}

// appendLocalAnnotations mirrors appendAnnotations over a block-local
// string dictionary: presence flag (0 = nil map), then sorted keys and
// in-order values as interned ids.
func appendLocalAnnotations(dst []byte, a core.Annotations, intern func(string) uint64) []byte {
	if a == nil {
		return binary.AppendUvarint(dst, 0)
	}
	keys := a.Keys()
	dst = binary.AppendUvarint(dst, uint64(1+len(keys)))
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, intern(k))
		vs := a[k]
		dst = binary.AppendUvarint(dst, uint64(len(vs)))
		for _, v := range vs {
			dst = binary.AppendUvarint(dst, intern(v))
		}
	}
	return dst
}

// skipLocalAnn validates an annotation map's structure and ids without
// building it.
func (d *rowDecoder) skipLocalAnn(limit int) {
	flag := d.count(1)
	if d.err != nil || flag == 0 {
		return
	}
	for i := 0; i < flag-1 && d.err == nil; i++ {
		d.localID(limit)
		nVals := d.count(1)
		if d.err != nil {
			return
		}
		for j := 0; j < nVals; j++ {
			d.localID(limit)
		}
	}
}

// ---- Encoding ------------------------------------------------------------

// encodeSegmentV2 lays the captured columns out as a block-structured
// segment: segBlockRows rows per block (the last one partial), per-column
// cheap encodings, one CRC and zone map per block. c.trajs must hold every
// row's trajectory. Each block's blockInfo comes back too, locating its
// payload in the returned bytes (its base is left to appendBlocks and its
// file to the caller): what decodeSegments would record from them, for
// shard.adoptSegment.
func encodeSegmentV2(c *segmentColumns) ([]byte, []blockInfo) {
	n := len(c.seqs)
	var body []byte // the block payloads, each followed by its CRC
	var infos []blockInfo
	var bufs blockBufs
	for base := 0; base < n; base += segBlockRows {
		p, info := encodeBlock(c, c.trajs, base, min(base+segBlockRows, n), &bufs)
		info.off = int64(len(body)) // made absolute below
		body = append(body, p...)
		body = binary.LittleEndian.AppendUint32(body, crc32.Checksum(p, castagnoliTable))
		infos = append(infos, info)
	}
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(n))
	hdr = binary.AppendUvarint(hdr, uint64(len(infos)))
	for i := range infos {
		hdr = binary.AppendUvarint(hdr, uint64(infos[i].plen))
		hdr = appendZone(hdr, &infos[i].zone)
	}
	out := make([]byte, 0, len(segMagicV2)+binary.MaxVarintLen64+len(hdr)+4+len(body))
	out = append(out, segMagicV2...)
	out = binary.AppendUvarint(out, uint64(len(hdr)))
	out = append(out, hdr...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(hdr, castagnoliTable))
	for i := range infos {
		infos[i].off += int64(len(out))
	}
	return append(out, body...), infos
}

// gcd64 is the binary-size GCD over unsigned deltas; gcd64(0, x) == x, so
// a running fold starts at 0.
func gcd64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// absDelta is |v| as uint64 (well-defined at math.MinInt64).
func absDelta(v int64) uint64 {
	if v < 0 {
		return uint64(-v)
	}
	return uint64(v)
}

// blockTimeScale folds the GCD of every time delta the block will encode —
// span start deltas, span lengths, and the residual's per-point interval
// deltas. Real feeds are clock-granular (seconds, minutes), so the scaled
// deltas shrink from ~6 varint bytes to 1–2; a pathological mix just
// yields 1 and encodes verbatim.
func blockTimeScale(c *segmentColumns, trajs []core.Trajectory, base, end int) uint64 {
	g := uint64(0)
	prevStart := int64(0)
	for i := base; i < end; i++ {
		st, en := c.starts[i], c.ends[i]
		g = gcd64(g, absDelta(st-prevStart))
		g = gcd64(g, absDelta(en-st))
		prevStart = st
		prevT := st
		tr := trajs[i].Trace
		for k := range tr {
			pt := &tr[k]
			pst, pen := pt.Start.UnixNano(), pt.End.UnixNano()
			g = gcd64(g, absDelta(pst-prevT))
			g = gcd64(g, absDelta(pen-pst))
			prevT = pen
		}
	}
	if g == 0 {
		return 1
	}
	return g
}

// blockBufs are encodeBlock's scratch buffers, kept across the blocks of
// one segment, so a checkpoint does not regrow two fresh slices per block.
type blockBufs struct{ p, rp []byte }

// encodeBlock encodes rows [base, end) of the captured columns as one
// block payload and returns it with the block's blockInfo (its payload
// length and residual offset set). The payload lives in bufs: it is valid
// until the next call.
func encodeBlock(c *segmentColumns, trajs []core.Trajectory, base, end int, bufs *blockBufs) ([]byte, blockInfo) {
	rows := end - base
	var z zoneMap
	for i := base; i < end; i++ {
		z.fold(c.seqs[i], c.starts[i], c.ends[i], trajs[i].Trace, c.encs[i])
	}

	tg := blockTimeScale(c, trajs, base, end)
	tsc := int64(tg)

	p := bufs.p[:0]
	// Time scale: every span/residual time delta below is divided by it
	// (exactly — it is their GCD) and multiplied back at decode.
	p = binary.AppendUvarint(p, tg)

	// seqs: first absolute, then signed deltas (near-monotone in practice).
	p = binary.AppendUvarint(p, c.seqs[base])
	for i := base + 1; i < end; i++ {
		p = binary.AppendVarint(p, int64(c.seqs[i]-c.seqs[i-1]))
	}

	// moIDs: run-length when runs win, plain otherwise; one flag byte.
	nRuns := 1
	moSet := make(map[int32]struct{}, 16)
	moSet[c.moIDs[base]] = struct{}{}
	for i := base + 1; i < end; i++ {
		if c.moIDs[i] != c.moIDs[i-1] {
			nRuns++
		}
		moSet[c.moIDs[i]] = struct{}{}
	}
	z.distinctMOs = int32(len(moSet))
	if nRuns*2 < rows {
		p = append(p, 1)
		p = binary.AppendUvarint(p, uint64(nRuns))
		i := base
		for i < end {
			j := i
			for j < end && c.moIDs[j] == c.moIDs[i] {
				j++
			}
			p = binary.AppendUvarint(p, uint64(c.moIDs[i]))
			p = binary.AppendUvarint(p, uint64(j-i))
			i = j
		}
	} else {
		p = append(p, 0)
		for i := base; i < end; i++ {
			p = binary.AppendUvarint(p, uint64(c.moIDs[i]))
		}
	}

	// spans: start as scaled delta to the previous start, end as scaled
	// offset from start.
	prevStart := int64(0)
	for i := base; i < end; i++ {
		st, en := c.starts[i], c.ends[i]
		p = binary.AppendVarint(p, (st-prevStart)/tsc)
		p = binary.AppendVarint(p, (en-st)/tsc)
		prevStart = st
	}

	// encs: block-local sorted cell dictionary + per-row local indexes.
	local := make(map[int32]int32, 32)
	var cellDict []int32
	for i := base; i < end; i++ {
		for _, id := range c.encs[i] {
			if _, ok := local[id]; !ok {
				local[id] = 0
				cellDict = append(cellDict, id)
			}
		}
	}
	slices.Sort(cellDict)
	for li, id := range cellDict {
		local[id] = int32(li)
	}
	z.distinctCells = int32(len(cellDict))
	p = appendDeltaDict(p, cellDict)
	for i := base; i < end; i++ {
		p = binary.AppendUvarint(p, uint64(len(c.encs[i])))
		for _, id := range c.encs[i] {
			p = binary.AppendUvarint(p, uint64(local[id]))
		}
	}

	// anns: same local-dictionary shape over annotation-pair ids.
	pairLocal := make(map[int32]int32, 16)
	var pairDict []int32
	for i := base; i < end; i++ {
		for _, id := range c.anns[i] {
			if _, ok := pairLocal[id]; !ok {
				pairLocal[id] = 0
				pairDict = append(pairDict, id)
			}
		}
	}
	slices.Sort(pairDict)
	for li, id := range pairDict {
		pairLocal[id] = int32(li)
	}
	p = appendDeltaDict(p, pairDict)
	for i := base; i < end; i++ {
		p = binary.AppendUvarint(p, uint64(len(c.anns[i])))
		for _, id := range c.anns[i] {
			p = binary.AppendUvarint(p, uint64(pairLocal[id]))
		}
	}

	// Residual: rows buffer first so the string dictionary they intern
	// into can precede them in the payload.
	strIdx := make(map[string]uint64, 32)
	var strDict []string
	intern := func(s string) uint64 {
		id, ok := strIdx[s]
		if !ok {
			id = uint64(len(strDict))
			strIdx[s] = id
			strDict = append(strDict, s)
		}
		return id
	}
	rp := bufs.rp[:0]
	for i := base; i < end; i++ {
		t := trajs[i]
		rp = appendLocalAnnotations(rp, t.Ann, intern)
		prevT := c.starts[i]
		for k := range t.Trace {
			pt := &t.Trace[k]
			rp = binary.AppendUvarint(rp, intern(pt.Transition))
			st, en := pt.Start.UnixNano(), pt.End.UnixNano()
			rp = binary.AppendVarint(rp, (st-prevT)/tsc)
			rp = binary.AppendVarint(rp, (en-st)/tsc)
			prevT = en
			rp = appendLocalAnnotations(rp, pt.Ann, intern)
			rp = appendLocalAnnotations(rp, pt.TransitionAnn, intern)
		}
	}
	resOff := len(p)
	p = binary.AppendUvarint(p, uint64(len(strDict)))
	for _, s := range strDict {
		p = appendStr(p, s)
	}
	p = append(p, rp...)
	bufs.p, bufs.rp = p, rp
	return p, blockInfo{zone: z, tscale: tsc, plen: len(p), resOff: resOff}
}

// ---- Decoding ------------------------------------------------------------

// blockInfo is the retained per-block state: slot base, zone map, time
// scale, and where the block's bytes are — its segment file, the file
// offset and length of its payload (the payload's CRC follows it) and the
// offset of the residual section inside the payload. No byte of the block
// stays in memory: a cache miss reads the payload back (shardBlocks.cols).
type blockInfo struct {
	base   int32
	zone   zoneMap
	tscale int64
	seg    *segReader
	off    int64
	plen   int
	resOff int
}

// segHeader is a parsed block-structured segment header: the segment's
// row count and, per block, its payload length and zone map; body is the
// file offset of block 0's payload.
type segHeader struct {
	rows  int
	plens []uint64
	zones []zoneMap
	body  int
}

// parseSegHeader checks a block-structured segment's magic and header
// checksum and parses the header, without touching a block: the blocks'
// row counts must sum to the segment's.
func parseSegHeader(data []byte, path string) (*segHeader, error) {
	ml := len(segMagicV2)
	if len(data) < ml+1 || string(data[:ml]) != segMagicV2 {
		return nil, fmt.Errorf("store: %s: bad or missing %s header", path, segMagicV2)
	}
	hlen, w := binary.Uvarint(data[ml:])
	if w <= 0 || hlen > uint64(len(data)-ml-w) {
		return nil, fmt.Errorf("store: segment %s: truncated header", path)
	}
	hdrOff := ml + w
	hdr := data[hdrOff : hdrOff+int(hlen)]
	crcOff := hdrOff + int(hlen)
	if len(data) < crcOff+4 {
		return nil, fmt.Errorf("store: segment %s: truncated header checksum", path)
	}
	if crc32.Checksum(hdr, castagnoliTable) != binary.LittleEndian.Uint32(data[crcOff:]) {
		return nil, fmt.Errorf("store: segment %s: header checksum mismatch", path)
	}

	d := &rowDecoder{b: hdr}
	total := d.uvarint()
	if d.err == nil && total > uint64(len(data)) {
		d.fail("row count exceeds file size")
	}
	nBlocks := d.count(40) // a zone map alone is > 40 header bytes
	h := &segHeader{plens: make([]uint64, 0, nBlocks), zones: make([]zoneMap, 0, nBlocks), body: crcOff + 4}
	rowSum := uint64(0)
	for b := 0; b < nBlocks && d.err == nil; b++ {
		plen := d.uvarint()
		z := d.zone()
		if d.err != nil {
			break
		}
		if z.rows <= 0 || uint64(z.rows) > total {
			d.fail(fmt.Sprintf("block %d row count %d of %d total", b, z.rows, total))
			break
		}
		rowSum += uint64(z.rows)
		h.plens = append(h.plens, plen)
		h.zones = append(h.zones, z)
	}
	if d.err != nil {
		return nil, fmt.Errorf("store: segment %s: header: %w", path, d.err)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("store: segment %s: header: %d trailing bytes", path, len(d.b))
	}
	if rowSum != total {
		return nil, fmt.Errorf("store: segment %s: header: blocks hold %d rows, header says %d", path, rowSum, total)
	}
	h.rows = int(total)
	return h, nil
}

// segFile is one segment file's path, its image (read once by an open,
// for decodeSegments) and the read handle its blocks keep.
type segFile struct {
	path string
	data []byte
	r    *segReader
}

// decodeSegments loads a fresh shard's block-structured segments, one
// generation after another, straight into its columns. Every header is
// parsed first, so the columns are sized once. Then per block: the CRC,
// the eager columns appended to the shard's (validated against the zone
// map — pruning trusts zones, so a zone inconsistent with its rows is
// corruption), the residual structure validated and left lazy behind the
// block cache, and the block's slots indexed by indexSlot. Every block
// joins the shard's one shardBlocks at its final slot base
// (appendBlocks), holding its file's read handle and none of its bytes;
// a file with no block has its handle closed, and so has every file when
// the load fails. Errors name the failing segment, block and byte offset;
// a failed block fails the load, it never panics later.
// Returns one past the highest seq loaded (0 when none).
func (sh *shard) decodeSegments(files []segFile, cellLimit, moLimit, pairLimit int, cache *blockCache) (next uint64, err error) {
	hdrs := make([]*segHeader, len(files))
	defer func() {
		for i, f := range files {
			if err != nil || len(hdrs[i].zones) == 0 {
				f.r.close()
			}
		}
	}()
	rows, nBlocks := 0, 0
	for i, f := range files {
		h, err := parseSegHeader(f.data, f.path)
		if err != nil {
			return 0, err
		}
		hdrs[i] = h
		rows += h.rows
		nBlocks += len(h.zones)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.seqs) != 0 {
		panic("store: decodeSegments on non-empty shard")
	}
	sh.seqs = make([]uint64, 0, rows)
	sh.encs = make([][]int32, 0, rows)
	sh.anns = make([][]int32, 0, rows)
	sh.moIDs = make([]int32, 0, rows)
	sh.starts = make([]int64, 0, rows)
	sh.ends = make([]int64, 0, rows)
	infos := make([]blockInfo, 0, nBlocks)
	for i, f := range files {
		pos := hdrs[i].body
		for b := range hdrs[i].zones {
			z := &hdrs[i].zones[b]
			plen := int(hdrs[i].plens[b])
			if plen < 0 || pos+plen+4 > len(f.data) {
				return 0, fmt.Errorf("store: segment %s: block %d at offset %d: truncated", f.path, b, pos)
			}
			payload := f.data[pos : pos+plen]
			if crc32.Checksum(payload, castagnoliTable) != binary.LittleEndian.Uint32(f.data[pos+plen:]) {
				return 0, fmt.Errorf("store: segment %s: block %d at offset %d: checksum mismatch", f.path, b, pos)
			}
			base := len(sh.seqs)
			res, tscale, err := sh.decodeBlockColumns(payload, z, cellLimit, moLimit, pairLimit)
			if err == nil {
				err = sh.validateBlockResidual(res, base, int(z.rows), tscale)
			}
			if err != nil {
				return 0, fmt.Errorf("store: segment %s: block %d at offset %d: %w", f.path, b, pos, err)
			}
			for slot := base; slot < len(sh.seqs); slot++ {
				sh.indexSlot(int32(slot), sh.moIDs[slot], sh.encs[slot], sh.anns[slot], nil)
			}
			infos = append(infos, blockInfo{zone: *z, tscale: tscale, seg: f.r, off: int64(pos), plen: plen, resOff: plen - len(res)})
			next = max(next, z.maxSeq+1)
			pos += plen + 4
		}
		if pos != len(f.data) {
			return 0, fmt.Errorf("store: segment %s: %d trailing bytes", f.path, len(f.data)-pos)
		}
	}
	sh.appendBlocks(infos, cache)
	return next, nil
}

// appendBlocks appends blocks to the shard's block-backed prefix, setting
// each one's base to its final slot, and creates the prefix on the first
// one. Cold opens and checkpoints both grow prefixes only here.
//
//sitm:locked
func (sh *shard) appendBlocks(blocks []blockInfo, cache *blockCache) {
	if len(blocks) == 0 {
		return
	}
	bs := sh.blk
	if bs == nil {
		bs = &shardBlocks{cache: cache, sh: sh}
		sh.blk = bs
	}
	first := len(bs.blocks)
	bs.blocks = append(bs.blocks, blocks...)
	for i := first; i < len(bs.blocks); i++ {
		bs.blocks[i].base = int32(bs.rowCount)
		bs.rowCount += int(bs.blocks[i].zone.rows)
	}
}

// decodeBlockColumns appends one block's eager columns to the shard's,
// verifying every value against the block's zone map, and returns the
// block's residual section and time scale.
//
//sitm:locked
func (sh *shard) decodeBlockColumns(payload []byte, z *zoneMap, cellLimit, moLimit, pairLimit int) ([]byte, int64, error) {
	d := &rowDecoder{b: payload}
	rows := int(z.rows)

	// Time scale: multiplies every span/residual time delta. The bound
	// keeps a corrupt scale from overflowing the delta multiplies silently
	// (the zone cross-checks below would still catch it).
	tscale := int64(1)
	if ts := d.uvarint(); d.err == nil {
		if ts == 0 || ts > 1<<62 {
			d.fail(fmt.Sprintf("time scale %d out of range", ts))
		} else {
			tscale = int64(ts)
		}
	}

	// seqs.
	seq := d.uvarint()
	minSeq, maxSeq := seq, seq
	sh.seqs = append(sh.seqs, seq)
	for i := 1; i < rows; i++ {
		seq += uint64(d.varint())
		if seq < minSeq {
			minSeq = seq
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		sh.seqs = append(sh.seqs, seq)
	}
	if d.err == nil && (minSeq != z.minSeq || maxSeq != z.maxSeq) {
		d.fail("seq column outside zone map")
	}

	// moIDs.
	flag := d.raw(1)
	switch {
	case d.err != nil:
	case flag[0] == 1:
		nRuns := d.count(2)
		got := 0
		for r := 0; r < nRuns && d.err == nil; r++ {
			id := d.uvarint()
			runLen := d.uvarint()
			if d.err != nil {
				break
			}
			if id >= uint64(moLimit) {
				d.fail(fmt.Sprintf("mo id %d beyond dictionary size %d", id, moLimit))
				break
			}
			if runLen == 0 || got+int(runLen) > rows {
				d.fail("mo run overflows block")
				break
			}
			for k := 0; k < int(runLen); k++ {
				sh.moIDs = append(sh.moIDs, int32(id))
			}
			got += int(runLen)
		}
		if d.err == nil && got != rows {
			d.fail("mo runs cover partial block")
		}
	case flag[0] == 0:
		for i := 0; i < rows && d.err == nil; i++ {
			id := d.uvarint()
			if d.err == nil && id >= uint64(moLimit) {
				d.fail(fmt.Sprintf("mo id %d beyond dictionary size %d", id, moLimit))
				break
			}
			sh.moIDs = append(sh.moIDs, int32(id))
		}
	default:
		d.fail(fmt.Sprintf("mo column flag %d", flag[0]))
	}

	// spans.
	prevStart := int64(0)
	var minStart, maxStart, minEnd, maxEnd int64
	for i := 0; i < rows && d.err == nil; i++ {
		st := prevStart + d.varint()*tscale
		en := st + d.varint()*tscale
		if d.err != nil {
			break
		}
		if saturated(st) || saturated(en) {
			d.fail("span time outside the storable range")
			break
		}
		prevStart = st
		if i == 0 {
			minStart, maxStart, minEnd, maxEnd = st, st, en, en
		} else {
			if st < minStart {
				minStart = st
			}
			if st > maxStart {
				maxStart = st
			}
			if en < minEnd {
				minEnd = en
			}
			if en > maxEnd {
				maxEnd = en
			}
		}
		sh.starts = append(sh.starts, st)
		sh.ends = append(sh.ends, en)
	}
	if d.err == nil && (minStart != z.minStart || maxStart != z.maxStart || minEnd != z.minEnd || maxEnd != z.maxEnd) {
		d.fail("span column outside zone map")
	}

	// encs: local cell dictionary, then per-row local index sequences.
	cellDict := d.deltaDict(cellLimit)
	if d.err == nil {
		if int32(len(cellDict)) != z.distinctCells {
			d.fail("cell dictionary size disagrees with zone map")
		}
		for _, id := range cellDict {
			if !z.bloomHas(id) {
				d.fail("cell id missing from zone bloom")
				break
			}
		}
	}
	counts := make([]int, rows)
	var flatCells []int32
	for i := 0; i < rows && d.err == nil; i++ {
		n := d.count(1)
		counts[i] = n
		for k := 0; k < n && d.err == nil; k++ {
			li := d.localID(len(cellDict))
			if d.err != nil {
				break
			}
			flatCells = append(flatCells, cellDict[li])
		}
	}
	off := 0
	for i := 0; i < rows && d.err == nil; i++ {
		if counts[i] == 0 {
			sh.encs = append(sh.encs, nil)
			continue
		}
		sh.encs = append(sh.encs, flatCells[off:off+counts[i]:off+counts[i]])
		off += counts[i]
	}

	// anns: local pair dictionary + per-row ascending local indexes.
	pairDict := d.deltaDict(pairLimit)
	var flatPairs []int32
	for i := 0; i < rows && d.err == nil; i++ {
		n := d.count(1)
		counts[i] = n
		prev := -1
		for k := 0; k < n && d.err == nil; k++ {
			li := d.localID(len(pairDict))
			if d.err != nil {
				break
			}
			if li <= prev {
				d.fail("annotation ids not ascending")
				break
			}
			prev = li
			flatPairs = append(flatPairs, pairDict[li])
		}
	}
	off = 0
	for i := 0; i < rows && d.err == nil; i++ {
		if counts[i] == 0 {
			sh.anns = append(sh.anns, nil)
			continue
		}
		sh.anns = append(sh.anns, flatPairs[off:off+counts[i]:off+counts[i]])
		off += counts[i]
	}

	if d.err == nil && (z.distinctMOs <= 0 || int(z.distinctMOs) > rows) {
		d.fail("distinct-mo count out of range")
	}
	if d.err != nil {
		return nil, 0, d.err
	}
	return d.b, tscale, nil
}

// validateBlockResidual structurally validates a block's residual section
// without materializing strings or maps: every local id bounds-checked,
// every presence interval inside its row's span (the kCellDuring prune
// relies on that envelope), reading the rows' spans and traces from the
// shard's columns. After this walk, decodeBlockCols cannot fail.
//
//sitm:locked
func (sh *shard) validateBlockResidual(res []byte, base, rows int, tscale int64) error {
	d := &rowDecoder{b: res}
	nStr := d.count(1)
	for i := 0; i < nStr && d.err == nil; i++ {
		d.skipStr()
	}
	for r := 0; r < rows && d.err == nil; r++ {
		i := base + r
		d.skipLocalAnn(nStr)
		rowStart := sh.starts[i]
		rowEnd := sh.ends[i]
		prevT := rowStart
		for range sh.encs[i] {
			d.localID(nStr)
			st := prevT + d.varint()*tscale
			en := st + d.varint()*tscale
			if d.err != nil {
				break
			}
			if st < rowStart || en < st || en > rowEnd {
				d.fail("presence interval outside row span")
				break
			}
			prevT = en
			d.skipLocalAnn(nStr)
			d.skipLocalAnn(nStr)
			if d.err != nil {
				break
			}
		}
	}
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("store: corrupt record: %d trailing residual bytes", len(d.b))
	}
	return nil
}

// ---- Lazy block state ----------------------------------------------------

// shardBlocks is a shard's lazily decoded segment prefix: slots
// [0, rowCount) are held by the shard's committed segments, one generation
// after another, with their eager columns in the shard and their
// trajectory column empty. cols decodes a block's residual section into
// flat columns through the store's cache on demand. blocks and rowCount
// only grow (appendBlocks), under the owning shard's write lock; every
// reader holds its read lock. An appended block never changes, so its
// cached columns stay valid.
type shardBlocks struct {
	cache    *blockCache
	rowCount int
	blocks   []blockInfo
	// sh is the owning shard: its encs, moIDs and starts columns are the
	// per-row decode inputs, and their block prefix never changes.
	sh *shard
}

// blockOf locates the block holding slot (binary search on block bases).
//
//sitm:hotpath
//sitm:locked
func (bs *shardBlocks) blockOf(slot int32) int {
	lo, hi := 0, len(bs.blocks)
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if bs.blocks[mid].base <= slot {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// cols returns the decoded columns of one block, consulting the store's
// cache first. The cache-hit path is allocation-free. A miss reads the
// block's payload and CRC back from its segment file into a pooled
// buffer, checks the CRC on exactly those bytes and decodes the residual
// (decodeBlockCols copies what it keeps, so the buffer goes back to the
// pool). A failed read or a CRC mismatch returns a *BlockReadError and
// leaves nothing behind: the next miss reads the file again.
//
//sitm:locked
func (bs *shardBlocks) cols(b int) (*blockCols, error) {
	key := blockKey{bs: bs, block: int32(b)}
	if bc, ok := bs.cache.get(key); ok {
		return bc, nil
	}
	info := &bs.blocks[b]
	bp := payloadPool.Get().(*[]byte)
	defer payloadPool.Put(bp)
	buf := slices.Grow((*bp)[:0], info.plen+4)[:info.plen+4]
	*bp = buf
	if err := info.seg.readAt(buf, info.off); err != nil {
		return nil, &BlockReadError{Path: info.seg.path, Offset: info.off, Err: err}
	}
	payload := buf[:info.plen]
	if crc32.Checksum(payload, castagnoliTable) != binary.LittleEndian.Uint32(buf[info.plen:]) {
		return nil, &BlockReadError{Path: info.seg.path, Offset: info.off, Err: errBlockChecksum}
	}
	bc, err := bs.decodeBlockCols(b, payload[info.resOff:])
	if err != nil {
		// Unreachable: the residual section was validated at open or
		// encoded from these very columns, and its bytes passed their CRC.
		panic(fmt.Errorf("store: segment block %d failed decode after validation: %w", b, err))
	}
	bs.cache.put(key, bc)
	return bc, nil
}

// payloadPool recycles the buffers block payloads are read into on a
// cache miss.
var payloadPool = sync.Pool{New: func() any { return new([]byte) }}

// errBlockChecksum is the Err of a BlockReadError whose bytes were read
// but do not match the block's CRC.
var errBlockChecksum = errors.New("checksum mismatch")

// ErrClosed is the Err of a BlockReadError for a block read after Close
// released the store's segment files.
var ErrClosed = errors.New("store: closed")

// BlockReadError reports a segment block whose bytes could not be read
// back on a block-cache miss: the read failed (Err wraps the I/O error, or
// is ErrClosed after Close), or the bytes read do not match the block's
// CRC. It fails the query that missed, and only that query: nothing of it
// is cached. Query methods with an error result return it; those without
// one panic with it.
type BlockReadError struct {
	Path   string // the segment file
	Offset int64  // file offset of the block's payload
	Err    error
}

func (e *BlockReadError) Error() string {
	return fmt.Sprintf("store: segment %s: block at offset %d: %v", e.Path, e.Offset, e.Err)
}

func (e *BlockReadError) Unwrap() error { return e.Err }

// segReader is the read handle of one committed segment file, shared by
// its blocks: opened through the store's filesystem when the file is
// loaded or written, and closed once, by Store.Close (or by the failed
// open or checkpoint that opened it). Reads run concurrently; a read
// after close fails with ErrClosed.
type segReader struct {
	path string
	mu   sync.RWMutex
	//sitm:guardedby mu
	r io.ReaderAt // nil once closed
}

// readAt fills p from offset off of the file: a short read is an error.
func (sr *segReader) readAt(p []byte, off int64) error {
	sr.mu.RLock()
	defer sr.mu.RUnlock()
	if sr.r == nil {
		return ErrClosed
	}
	n, err := sr.r.ReadAt(p, off)
	if n == len(p) {
		return nil // io.ReaderAt may report io.EOF with a full read
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// close releases the handle; later reads fail with ErrClosed. Idempotent.
func (sr *segReader) close() error {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	var err error
	if c, ok := sr.r.(io.Closer); ok {
		err = c.Close()
	}
	sr.r = nil
	return err
}

// closeFiles closes the read handles of the prefix's segment files. The
// blocks of one file are contiguous, so each handle is met in one run.
//
//sitm:locked
func (bs *shardBlocks) closeFiles() error {
	var first error
	var last *segReader
	for i := range bs.blocks {
		if sr := bs.blocks[i].seg; sr != last {
			if err := sr.close(); first == nil {
				first = err
			}
			last = sr
		}
	}
	return first
}

// blockCols is one block's residual section decoded into flat, almost
// pointer-free columns: what the block cache holds, what a reply is
// encoded from, and what blockCols.traj materializes a row from. It is
// immutable once built, so a reader holding the pointer keeps a coherent
// block even after the cache evicts it.
type blockCols struct {
	// encs and moIDs are the shard's eager columns for the block's slots
	// (sub-slices captured under the shard lock; a block's prefix of
	// those columns never changes). They are not part of size.
	encs  [][]int32
	moIDs []int32
	// strs is the block-local string dictionary: substrings of one copy
	// of the residual's dictionary section.
	strs []string
	blob string
	// Row r's presence intervals are ivs[ivOff[r]:ivOff[r+1]], parallel
	// to encs[r]; rowAnn[r] is its trajectory annotation set.
	ivOff  []int32
	ivs    []colIv
	rowAnn []int32
	// Annotation set s holds keys[setOff[s]:setOff[s+1]], sorted by key
	// string and distinct; noAnn stands for a nil map.
	setOff []int32
	keys   []colKey
	vals   []int32 // value string ids, in each key's own order
	// size is the exact footprint charged to the cache (footprint).
	size int64
}

// colIv is one presence interval of a block row.
type colIv struct {
	start, end int64 // unix nanos, inside the int64 nanosecond range
	trans      int32 // transition string id
	ann, tann  int32 // annotation sets of the interval and its transition
}

// colKey is one annotation key: its string id and its values,
// vals[v0:v1] (none: a nil value slice).
type colKey struct{ str, v0, v1 int32 }

// noAnn is the annotation set index of a nil map.
const noAnn = -1

// footprint is the exact byte size of the columns a blockCols owns: its
// own struct, the backing arrays of its slices (by capacity) and the
// dictionary's one string copy. encs and moIDs belong to the shard.
func (bc *blockCols) footprint() int64 {
	n := int64(unsafe.Sizeof(*bc)) + int64(len(bc.blob))
	n += int64(cap(bc.strs)) * int64(unsafe.Sizeof(""))
	n += int64(cap(bc.ivs)) * int64(unsafe.Sizeof(colIv{}))
	n += int64(cap(bc.keys)) * int64(unsafe.Sizeof(colKey{}))
	n += int64(cap(bc.ivOff)+cap(bc.rowAnn)+cap(bc.setOff)+cap(bc.vals)) * 4
	return n
}

// decodeBlockCols decodes block b's residual section res into columns
// (the mirror of encodeBlock's residual pass). Row times come back as
// unix nanos and names stay ids: no time.Time, map or dictionary lookup
// is built here, and nothing aliases res. Callers hold the owning shard's
// lock.
//
//sitm:locked
func (bs *shardBlocks) decodeBlockCols(b int, res []byte) (*blockCols, error) {
	info := &bs.blocks[b]
	base, rows := int(info.base), int(info.zone.rows)
	sh := bs.sh
	bc := &blockCols{
		encs:  sh.encs[base : base+rows : base+rows],
		moIDs: sh.moIDs[base : base+rows : base+rows],
	}
	d := &rowDecoder{b: res}
	nStr := d.count(1)
	sec := d.b
	for i := 0; i < nStr && d.err == nil; i++ {
		d.skipStr()
	}
	if d.err != nil {
		return nil, d.err
	}
	bc.blob = string(sec[:len(sec)-len(d.b)])
	bc.strs = make([]string, nStr)
	for i, p := 0, 0; i < nStr; i++ {
		n, w := binary.Uvarint(sec[p:])
		p += w
		bc.strs[i] = bc.blob[p : p+int(n)]
		p += int(n)
	}
	nIv := 0
	for _, enc := range bc.encs {
		nIv += len(enc)
	}
	bc.ivOff = make([]int32, rows+1)
	bc.ivs = make([]colIv, nIv)
	bc.rowAnn = make([]int32, rows)
	bc.setOff = make([]int32, 1, rows+1)
	k := 0
	for r := 0; r < rows && d.err == nil; r++ {
		bc.rowAnn[r] = d.annSet(bc)
		prevT := sh.starts[base+r]
		for range bc.encs[r] {
			iv := &bc.ivs[k]
			iv.trans = int32(d.localID(nStr))
			iv.start = prevT + d.varint()*info.tscale
			iv.end = iv.start + d.varint()*info.tscale
			prevT = iv.end
			iv.ann = d.annSet(bc)
			iv.tann = d.annSet(bc)
			k++
		}
		bc.ivOff[r+1] = int32(k)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("store: corrupt record: %d trailing residual bytes", len(d.b))
	}
	bc.size = bc.footprint()
	return bc, nil
}

// annSet decodes one annotation map encoded by appendLocalAnnotations into
// bc's set columns and returns its set index (noAnn for a nil map). The
// keys end up sorted by string and distinct, a repeated key keeping its
// last values — the map a decoder would build from them.
func (d *rowDecoder) annSet(bc *blockCols) int32 {
	flag := d.count(1)
	if d.err != nil || flag == 0 {
		return noAnn
	}
	k0 := len(bc.keys)
	for i := 0; i < flag-1 && d.err == nil; i++ {
		key := colKey{str: int32(d.localID(len(bc.strs)))}
		nVals := d.count(1)
		key.v0 = int32(len(bc.vals))
		for j := 0; j < nVals && d.err == nil; j++ {
			bc.vals = append(bc.vals, int32(d.localID(len(bc.strs))))
		}
		key.v1 = int32(len(bc.vals))
		bc.keys = append(bc.keys, key)
	}
	if d.err != nil {
		return noAnn
	}
	keys := bc.keys[k0:]
	cmp := func(a, b colKey) int { return strings.Compare(bc.strs[a.str], bc.strs[b.str]) }
	for i := 1; i < len(keys); i++ {
		if cmp(keys[i-1], keys[i]) < 0 {
			continue
		}
		// Only a hand-made segment gets here: the encoder writes a map's
		// keys sorted and distinct.
		slices.SortStableFunc(keys, cmp)
		out := keys[:0]
		for j, key := range keys {
			if j+1 < len(keys) && cmp(key, keys[j+1]) == 0 {
				continue // a later value of the same key wins
			}
			out = append(out, key)
		}
		bc.keys = bc.keys[:k0+len(out)]
		break
	}
	bc.setOff = append(bc.setOff, int32(len(bc.keys)))
	return int32(len(bc.setOff) - 2)
}

// traj materializes row r: the one way a block-backed row becomes a
// core.Trajectory, its names resolved through the dictionary snapshots.
func (bc *blockCols) traj(r int, cells, mos *symtab.Dict) core.Trajectory {
	t := core.Trajectory{MO: mos.Symbol(bc.moIDs[r]), Ann: bc.annotations(bc.rowAnn[r])}
	enc := bc.encs[r]
	if len(enc) == 0 {
		return t
	}
	ivs := bc.ivs[bc.ivOff[r]:bc.ivOff[r+1]]
	t.Trace = make(core.Trace, len(enc))
	for j, id := range enc {
		iv := &ivs[j]
		t.Trace[j] = core.PresenceInterval{
			Transition:    bc.strs[iv.trans],
			Cell:          cells.Symbol(id),
			Start:         time.Unix(0, iv.start).UTC(),
			End:           time.Unix(0, iv.end).UTC(),
			Ann:           bc.annotations(iv.ann),
			TransitionAnn: bc.annotations(iv.tann),
		}
	}
	return t
}

// annotations builds annotation set s as a map (nil for noAnn).
func (bc *blockCols) annotations(s int32) core.Annotations {
	if s == noAnn {
		return nil
	}
	keys := bc.keys[bc.setOff[s]:bc.setOff[s+1]]
	a := make(core.Annotations, len(keys))
	for _, k := range keys {
		var vs []string
		if k.v1 > k.v0 {
			vs = make([]string, k.v1-k.v0)
			for i, id := range bc.vals[k.v0:k.v1] {
				vs[i] = bc.strs[id]
			}
		}
		a[bc.strs[k.str]] = vs
	}
	return a
}

// cellDuring reports whether row r has a presence interval at cell id
// intersecting [fromN, toN]. A block's times lie inside the int64
// nanosecond range, so comparing nanos against the saturated window edges
// is exact.
//
//sitm:hotpath
func (bc *blockCols) cellDuring(r int, id int32, fromN, toN int64) bool {
	ivs := bc.ivs[bc.ivOff[r]:bc.ivOff[r+1]]
	for j, cell := range bc.encs[r] {
		if cell == id && ivs[j].end >= fromN && ivs[j].start <= toN {
			return true
		}
	}
	return false
}

// ---- Zone-map pruning (plan executor) -----------------------------------

// zone returns the i-th zone of the shard in slot order — the lazily held
// prefix's blocks first, then the live zones — with its first slot.
//
//sitm:locked
func (sh *shard) zone(i int) (int32, *zoneMap) {
	if bs := sh.blk; bs != nil {
		if i < len(bs.blocks) {
			return bs.blocks[i].base, &bs.blocks[i].zone
		}
		i -= len(bs.blocks)
	}
	return sh.zones[i].base, &sh.zones[i].zone
}

// windowRows prices a time window in the shard: the rows of the zones not
// timeDisjoint from [fromN, toN], found by zoneSlots' zone walk without
// touching a row.
//
//sitm:locked
func (sh *shard) windowRows(fromN, toN int64) int {
	n := len(sh.zones)
	if sh.blk != nil {
		n += len(sh.blk.blocks)
	}
	rows := 0
	for i := 0; i < n; i++ {
		if _, z := sh.zone(i); !z.timeDisjoint(fromN, toN) {
			rows += int(z.rows)
		}
	}
	return rows
}

// zoneSlots answers a kTime or kCellDuring node in one shard with a single
// prune loop over every zone, checkpointed and live alike: a zone
// disjoint from the window (or, for kCellDuring, whose bloom lacks the
// cell) is skipped without touching its rows or, for kCellDuring, its
// posting; a zone the window covers contributes every slot to kTime; any
// other zone is tested slot by slot — kCellDuring binary-searches the
// exact cell posting for the zone's candidates and checks a slot's span
// columns before walking its trace, so a checkpointed block's columns are
// decoded only when one of its candidates can match. Zones are in slot
// order, so the result is ascending with no sort. Window edges saturate
// to the int64 nanosecond range (cplan.fromN, toN); per-slot span tests
// compare nanos and stay exact (see shard.spanOverlaps), and so do a
// block row's interval tests (blockCols.cellDuring); a live row's compare
// its exact times. Store.noPrune turns every zone into a slot-by-slot
// zone (the property-test oracle). A kTime result is allocated once, at
// the window's zone-priced row count (shard.windowRows), which bounds it.
// A block that cannot be read back fails the node: ctx.err is set and the
// result is nil.
//
//sitm:locked
func (c *cplan) zoneSlots(ctx *execCtx) []int32 {
	sh := ctx.sh
	fromN, toN := c.fromN, c.toN
	prune := !ctx.s.noPrune
	cellQ := c.kind == kCellDuring
	var post, slots []int32 // post: kCellDuring's remaining candidates
	if cellQ {
		if post = sh.posting(c.id); len(post) == 0 {
			return nil
		}
	} else if n := sh.windowRows(fromN, toN); n > 0 {
		slots = make([]int32, 0, n)
	}
	nBlocks, live := 0, sh.liveBase()
	if sh.blk != nil {
		nBlocks = len(sh.blk.blocks)
	}
	for i := 0; i < nBlocks+len(sh.zones); i++ {
		base, z := sh.zone(i)
		if cellQ && (len(post) == 0 || post[len(post)-1] < base) {
			break // no candidate left in this zone or any later one
		}
		last := base + z.rows
		if !cellQ {
			if prune && z.timeDisjoint(fromN, toN) {
				continue
			}
			ctx.examined += int(z.rows)
			if prune && z.timeCovered(fromN, toN) {
				for s := base; s < last; s++ {
					slots = append(slots, s)
				}
				continue
			}
			ctx.scannedZones++
			if z.unbounded { // may hold a saturated span: test exactly
				for s := base; s < last; s++ {
					if sh.spanOverlaps(s, c) {
						slots = append(slots, s)
					}
				}
				continue
			}
			starts := sh.starts[base:last]
			for j, en := range sh.ends[base:last] {
				if en >= fromN && starts[j] <= toN {
					slots = append(slots, base+int32(j))
				}
			}
			continue
		}
		if prune && (!z.bloomHas(c.id) || z.timeDisjoint(fromN, toN)) {
			continue
		}
		// Only an admitted zone searches the posting: first past the
		// slots of the zones skipped since the last search, then to the
		// zone's end.
		ctx.probedZones++
		lo, _ := slices.BinarySearch(post, base)
		post = post[lo:]
		k, _ := slices.BinarySearch(post, last)
		cand := post[:k]
		post = post[k:]
		if len(cand) == 0 {
			continue
		}
		ctx.scannedZones++
		ctx.examined += len(cand)
		var bc *blockCols // decoded on first need
		for _, s := range cand {
			if !z.unbounded && (sh.ends[s] < fromN || sh.starts[s] > toN) {
				continue
			}
			var hit bool
			if i < nBlocks {
				if bc == nil {
					var err error
					if bc, err = sh.blk.cols(i); err != nil {
						ctx.err = err
						return nil
					}
				}
				hit = bc.cellDuring(int(s-base), c.id, fromN, toN)
			} else {
				hit = liveCellDuring(&sh.trajs[s-live], sh.encs[s], c)
			}
			if hit {
				slots = append(slots, s)
			}
		}
	}
	return slots
}

// liveCellDuring reports whether the live trajectory t, whose interned
// cells are enc, has a presence interval at c's cell intersecting c's
// window, comparing the exact times (a live row of an in-memory store may
// lie outside the int64 nanosecond range).
func liveCellDuring(t *core.Trajectory, enc []int32, c *cplan) bool {
	for j, id := range enc {
		if id == c.id && !t.Trace[j].End.Before(c.from) && !t.Trace[j].Start.After(c.to) {
			return true
		}
	}
	return false
}
