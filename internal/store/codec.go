package store

import (
	"encoding/binary"
	"fmt"
	"time"

	"sitm/internal/core"
)

// Binary codec shared by the WAL row records and the segment residual
// column (DESIGN.md §3.10). A row is self-contained given the restored
// dictionaries: it carries the already-interned id columns (trace cells,
// annotation-pair set, moving object) plus the residual trajectory data
// the columns don't cover (interval times, transitions, annotation maps),
// so recovery rebuilds the exact in-memory shard columns with zero
// re-interning and zero JSON.
//
// Times persist as UnixNano and come back time.Unix(...).UTC(): the store
// treats instants as instants (all comparisons are absolute), so wall-zone
// identity is not part of the durability contract — but nanosecond
// precision and ordering are.

// rowDecoder consumes one encoded buffer with a sticky error, so decode
// call sites read like the encode call sites instead of error plumbing.
// strs, when set, interns the strings str decodes.
type rowDecoder struct {
	b    []byte
	err  error
	strs map[string]string
}

// maxInterned bounds a decoder's string table: past it, new strings are
// copied but not remembered, so a feed of distinct values cannot grow the
// table without limit.
const maxInterned = 1 << 16

func (d *rowDecoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("store: corrupt record: %s", msg)
	}
}

func (d *rowDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, w := binary.Uvarint(d.b)
	if w <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.b = d.b[w:]
	return v
}

func (d *rowDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, w := binary.Varint(d.b)
	if w <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[w:]
	return v
}

func (d *rowDecoder) count(elemMin int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)/elemMin+1) {
		// Every element costs at least elemMin bytes; a larger count is
		// corruption — reject before allocating.
		d.fail("element count exceeds remaining bytes")
		return 0
	}
	return int(n)
}

func (d *rowDecoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail("truncated string")
		return ""
	}
	b := d.b[:n]
	d.b = d.b[n:]
	if s, ok := d.strs[string(b)]; ok { // the lookup does not allocate
		return s
	}
	s := string(b)
	if d.strs != nil && len(d.strs) < maxInterned {
		d.strs[s] = s
	}
	return s
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendIDs(dst []byte, ids []int32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return dst
}

// ids decodes an id list, validating every id against the dictionary size
// limit. A nil result for a zero count keeps the encs/anns columns
// bit-identical to the write path (which stores nil for empty sets).
func (d *rowDecoder) ids(limit int) []int32 {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		v := d.uvarint()
		if d.err != nil {
			return nil
		}
		if v >= uint64(limit) {
			d.fail(fmt.Sprintf("id %d beyond dictionary size %d", v, limit))
			return nil
		}
		out[i] = int32(v)
	}
	return out
}

// appendAnnotations encodes an annotation map with a presence flag, so a
// nil map and an empty map round-trip distinctly (WriteJSON emits them
// differently, and the recovery oracle compares output bytes). Keys are
// written sorted; value order within a key is preserved.
func appendAnnotations(dst []byte, a core.Annotations) []byte {
	if a == nil {
		return binary.AppendUvarint(dst, 0)
	}
	keys := a.Keys()
	dst = binary.AppendUvarint(dst, uint64(1+len(keys)))
	for _, k := range keys {
		dst = appendStr(dst, k)
		vs := a[k]
		dst = binary.AppendUvarint(dst, uint64(len(vs)))
		for _, v := range vs {
			dst = appendStr(dst, v)
		}
	}
	return dst
}

func (d *rowDecoder) annotations() core.Annotations {
	flag := d.count(1)
	if d.err != nil || flag == 0 {
		return nil
	}
	nKeys := flag - 1
	a := make(core.Annotations, nKeys)
	for i := 0; i < nKeys; i++ {
		k := d.str()
		nVals := d.count(1)
		if d.err != nil {
			return nil
		}
		var vs []string
		if nVals > 0 {
			vs = make([]string, nVals)
			for j := range vs {
				vs[j] = d.str()
			}
		}
		a[k] = vs
	}
	if d.err != nil {
		return nil
	}
	return a
}

func (d *rowDecoder) time() time.Time {
	return time.Unix(0, d.varint()).UTC()
}

// durableRow is one decoded trajectory row ready for shard insertion: the
// explicit insertion sequence plus the exact column values the write path
// would have produced.
type durableRow struct {
	seq  uint64
	moID int32
	enc  []int32
	ann  []int32
	traj core.Trajectory
}

// appendRow encodes one trajectory row (a WAL row record's payload).
func appendRow(dst []byte, seq uint64, moID int32, enc, ann []int32, t core.Trajectory) []byte {
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(moID))
	dst = appendIDs(dst, enc)
	dst = appendIDs(dst, ann)
	return appendRowResidual(dst, t)
}

// appendRowResidual encodes the trajectory data the id columns don't
// carry: the trajectory annotation map and, per presence interval (count =
// trace length = enc length), the transition, times and interval
// annotation maps. The segment format stores exactly this blob per row
// after the id columns.
func appendRowResidual(dst []byte, t core.Trajectory) []byte {
	dst = appendAnnotations(dst, t.Ann)
	for _, p := range t.Trace {
		dst = appendStr(dst, p.Transition)
		dst = binary.AppendVarint(dst, p.Start.UnixNano())
		dst = binary.AppendVarint(dst, p.End.UnixNano())
		dst = appendAnnotations(dst, p.Ann)
		dst = appendAnnotations(dst, p.TransitionAnn)
	}
	return dst
}

// decodeRowResidual rebuilds the trajectory from its id columns plus the
// residual blob the decoder is positioned at. cells/mos resolve interned
// ids back to symbols.
func (d *rowDecoder) rowResidual(moID int32, enc []int32, cells, mos func(int32) string) core.Trajectory {
	t := core.Trajectory{MO: mos(moID), Ann: d.annotations()}
	if len(enc) > 0 {
		t.Trace = make(core.Trace, len(enc))
	}
	for i, cellID := range enc {
		p := &t.Trace[i]
		p.Cell = cells(cellID)
		p.Transition = d.str()
		p.Start = d.time()
		p.End = d.time()
		p.Ann = d.annotations()
		p.TransitionAnn = d.annotations()
	}
	return t
}

// decodeRow decodes one WAL row record. cellLimit/moLimit/pairLimit are
// the recovered dictionary sizes; an id at or past its limit is
// corruption, since a row's deltas precede it in the log. strs interns the
// row's transitions and annotation keys and values across the rows one
// goroutine decodes (nil copies each).
func decodeRow(payload []byte, cellLimit, moLimit, pairLimit int, cells, mos func(int32) string, strs map[string]string) (durableRow, error) {
	d := &rowDecoder{b: payload, strs: strs}
	row := durableRow{seq: d.uvarint()}
	mo := d.uvarint()
	if d.err == nil && mo >= uint64(moLimit) {
		d.fail(fmt.Sprintf("mo id %d beyond dictionary size %d", mo, moLimit))
	}
	row.moID = int32(mo)
	row.enc = d.ids(cellLimit)
	row.ann = d.ids(pairLimit)
	if d.err != nil {
		return durableRow{}, d.err
	}
	row.traj = d.rowResidual(row.moID, row.enc, cells, mos)
	if d.err != nil {
		return durableRow{}, d.err
	}
	if len(d.b) != 0 {
		return durableRow{}, fmt.Errorf("store: corrupt record: %d trailing bytes", len(d.b))
	}
	return row, nil
}
